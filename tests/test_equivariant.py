"""The isotypic path: seminormal generators, block ranks against the
cell-level echelons, and the multiplicities of irreducibles."""

import hashlib
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stripconf.equivariant as equivariant
import stripconf.homology as homology
from stripconf.cells import cell_complex, enumerate_cells, permutohedron
from stripconf.chains import boundary_matrix
from stripconf.equivariant import Irrep, block_ranks, partitions, tableaux
from stripconf.homology import (CertificateError, betti_number, boundary_rank,
                                homology_profile, image_echelon, isotypic_profile)
from stripconf.linalg import echelon_of_rows

from conftest import assert_grothendieck_lefschetz, fraction_matrix, run_optimized
from test_acceptance import FROZEN_BETTI as ACCEPTANCE_BETTI
from test_homology import FROZEN_BETTI as HOMOLOGY_BETTI


def _product(a, b):
    out = []
    for row in a:
        acc = {}
        for s, v in row.items():
            for t, x in b[s].items():
                acc[t] = acc.get(t, 0) + v * x
        out.append({t: x for t, x in acc.items() if x})
    return out


def _rational(matrix):
    """The rows of rows / den, for `Irrep.matrix`'s (rows, den)."""
    rows, den = matrix
    return [{t: Fraction(x, den) for t, x in row.items()} for row in rows]


def _identity(f):
    return [{a: 1} for a in range(f)]


def _swap(n, i):
    p = list(range(n))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


shapes = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.sampled_from(list(partitions(n))))


@settings(max_examples=60, deadline=None)
@given(shapes)
def test_seminormal_generators_satisfy_the_coxeter_relations(shape):
    n, irrep = sum(shape), Irrep(shape)
    one = _identity(irrep.dim)
    s = [_rational(irrep.matrix(_swap(n, i))) for i in range(n - 1)]
    for i in range(n - 1):
        assert _product(s[i], s[i]) == one
        if i + 2 < n:
            braid = _product(s[i], s[i + 1])
            assert _product(_product(braid, braid), braid) == one
        for j in range(i + 2, n - 1):
            assert _product(s[i], s[j]) == _product(s[j], s[i])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
    st.sampled_from(list(partitions(n))), st.permutations(range(n)),
    st.permutations(range(n)))))
def test_matrix_is_a_homomorphism(case):
    # rho(g o h) = rho(g) rho(h), with (g o h)(j) = g(h(j))
    shape, g, h = case
    irrep = Irrep(shape)
    gh = tuple(g[h[j]] for j in range(len(g)))
    assert _rational(irrep.matrix(gh)) == \
        _product(_rational(irrep.matrix(tuple(g))), _rational(irrep.matrix(tuple(h))))


@pytest.mark.parametrize("shape", [s for n in range(1, 7) for s in partitions(n)], ids=str)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_matrix_in_lowest_terms(shape, data):
    n = sum(shape)
    perm = tuple(data.draw(st.permutations(range(n))))
    rows, den = Irrep(shape).matrix(perm)
    values = [x for row in rows for x in row.values()]
    assert all(type(x) is int for x in values) and type(den) is int
    assert den >= 1 and gcd(den, *values) == 1
    assert _rational((rows, den)) == fraction_matrix(shape, perm)
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    assert Irrep((n,)).matrix(perm) == ([{0: 1}], 1)
    assert Irrep((1,) * n).matrix(perm) == ([{0: (-1) ** inversions}], 1)


def test_dimensions_square_to_the_group_order():
    for n in range(8):
        assert sum(len(tableaux(shape)) ** 2 for shape in partitions(n)) == factorial(n)
    assert [len(tableaux(s)) for s in partitions(4)] == [1, 3, 2, 3, 1]
    assert next(iter(partitions(5))) == (5,)


def _specs():
    specs = [cell_complex(len(w), width) for w, width in HOMOLOGY_BETTI]
    specs += [cell_complex(n, width) for n, width in ACCEPTANCE_BETTI]
    specs += [cell_complex(6, 2), cell_complex((2, 5, 7, 11), 2),
              cell_complex((2, 5, 7, 11), 3), cell_complex((2, 5, 7, 11), None)]
    specs += [cell_complex(n, None) for n in (2, 3, 4, 5)]
    return specs


@pytest.mark.parametrize("spec", _specs(), ids=lambda s: s.describe())
def test_block_ranks_match_cell_level_echelons(spec):
    top = spec.top_degree()
    blocks = block_ranks(spec, range(1, top + 1))
    for k in range(1, top + 1):
        cell_level = echelon_of_rows(boundary_matrix(spec, k).columns()).rank
        assert sum(f * ranks[k] for _, f, ranks in blocks) == cell_level, k


def test_unit_weight_frozen_tables_on_the_isotypic_path():
    assert all(all(w == 1 for w in weights) for weights, _ in HOMOLOGY_BETTI)
    tables = [((n, width), betti) for (n, width), betti in ACCEPTANCE_BETTI.items()]
    tables += [((len(w), width), betti) for (w, width), betti in HOMOLOGY_BETTI.items()]
    for (n, width), betti in tables:
        spec = cell_complex((2, 5, 7, 11, 13)[:n], width)
        prof = homology_profile(spec)
        assert prof.betti == betti
        assert prof == isotypic_profile(spec).profile
        assert prof.cells == tuple(len(enumerate_cells(spec, d)) for d in range(len(betti)))
        assert tuple(betti_number(spec, k) for k in range(len(betti))) == betti


def test_profile_ranks_without_cells(monkeypatch):
    spec = cell_complex((3, 4, 8, 9, 10), 3)

    def refuse(*args, **kwargs):
        raise AssertionError("the isotypic path touched cells")

    monkeypatch.setattr(homology, "enumerate_cells", refuse)
    monkeypatch.setattr(homology, "boundary_matrix", refuse)
    prof = homology_profile(spec)
    assert prof.betti == (1, 10, 169, 40)
    assert prof.cells == (120, 480, 720, 240)
    assert not any(key[0] == spec for key in homology._image_cache)


def test_unit_weight_ordered_ranks_take_the_blocks_despite_cached_echelons(monkeypatch):
    monkeypatch.setattr(homology, "_image_cache", {})
    spec = cell_complex(5, 3)
    echelons = [image_echelon(spec, k) for k in range(spec.top_degree() + 1)]
    asked = []

    def spy(spec, degrees):
        asked.append(list(degrees))
        return block_ranks(spec, degrees)

    monkeypatch.setattr(homology, "block_ranks", spy)
    assert boundary_rank(spec, 2) == echelons[1].rank
    assert betti_number(spec, 2) == 169
    assert homology_profile(spec).betti == (1, 10, 169, 40)
    assert asked == [[2], [2, 3], [1, 2, 3]]


def test_block_clearing_pins_the_rows_absorbed(monkeypatch):
    spec = cell_complex(6, 3)
    absorbed = []  # (block rows, nonempty rows) per block echelon
    real = equivariant.echelon_of_rows

    def spy(rows, track=False):
        absorbed.append((len(rows), sum(1 for row in rows if row)))
        return real(rows, track)

    monkeypatch.setattr(equivariant, "echelon_of_rows", spy)
    assert isotypic_profile(spec).profile.betti == (1, 15, 714, 780, 80)
    # 11 shapes times 4 degrees; degrees 1-3 leave out the rows that the
    # echelon one degree up clears
    assert len(absorbed) == 44
    assert [sum(col) for col in zip(*absorbed)] == [1748, 983]
    # one asked degree clears nothing: every nonzero row of R(d_k) is
    # absorbed, m_k orbits times the 76 involutions of S_6 rows in all
    single = []
    for k in range(1, 5):
        absorbed.clear()
        boundary_rank(spec, k)
        single.append([sum(col) for col in zip(*absorbed)])
    assert single == [[380, 278], [760, 717], [532, 528], [76, 76]]


def test_block_rows_are_ints(monkeypatch):
    spec = cell_complex(6, 3)
    handed = []
    real = equivariant.echelon_of_rows

    def spy(rows, track=False):
        handed.extend(v for row in rows for v in row.values())
        return real(rows, track)

    monkeypatch.setattr(equivariant, "echelon_of_rows", spy)
    prof = isotypic_profile(spec).profile
    assert prof.betti == (1, 15, 714, 780, 80)
    assert boundary_rank(spec, 2) == prof.ranks[2]
    assert handed and all(type(v) is int for v in handed)


def test_a_corrupted_facet_table_raises_under_python_O():
    printed = run_optimized("""
        import sys
        import stripconf.equivariant as equivariant
        from stripconf.cells import cell_complex
        from stripconf.homology import CertificateError, isotypic_profile

        honest = equivariant.facet_table

        def flipped(spec, degree):
            # one facet sign of the top degree negated: d d != 0
            table = honest(spec, degree)
            if degree == spec.top_degree():
                sign, below, h = table[0][0]
                table[0][0] = (-sign, below, h)
            return table

        equivariant.facet_table = flipped
        for n, w in ((4, 2), (5, 3)):
            try:
                isotypic_profile(cell_complex(n, w))
            except CertificateError:
                print("CertificateError", sys.flags.optimize)
    """)
    assert printed == ["CertificateError", "1"] * 2


@pytest.mark.parametrize("shape", list(partitions(5)), ids=str)
def test_a_corrupted_block_raises_in_every_shape(monkeypatch, shape):
    # rho(s_0) negated in one block only breaks R(d_{k+1}) R(d_k) = 0 there,
    # so that block's own clearing check has to see it
    class Corrupted(Irrep):
        def __init__(self, s):
            super().__init__(s)
            self.bad = s == shape

        def matrix(self, perm):
            rows, den = super().matrix(perm)
            if self.bad and perm == _swap(5, 0):
                rows = [{t: -x for t, x in row.items()} for row in rows]
            return rows, den

    monkeypatch.setattr(equivariant, "Irrep", Corrupted)
    with pytest.raises(CertificateError, match="cannot be cleared"):
        isotypic_profile(cell_complex(5, 3))


def test_weighted_and_permutohedra_stay_cell_level():
    for spec in (cell_complex((1, 2, 3), 3, (1, 2, 1)), permutohedron(3, 2)):
        with pytest.raises(ValueError, match="unit weights and ordered blocks"):
            isotypic_profile(spec)
        # ranked on the Morse complex of the least-label matching, whose
        # echelons are cached apart from membership's
        homology._image_cache.pop((spec, 0, "morse"), None)
        boundary_rank(spec, 1)
        assert (spec, 0, "morse") in homology._image_cache


def test_multiplicities_sum_to_betti_numbers():
    iso = isotypic_profile(cell_complex(5, 3))
    assert iso.profile.betti == (1, 10, 169, 40)
    for k, mults in enumerate(iso.multiplicities):
        assert sum(f * m for f, m in zip(iso.dims, mults)) == iso.profile.betti[k]
    assert iso.shapes[0] == (5,) and iso.dims[0] == 1
    assert str(iso).splitlines()[:2] == ["H0 = V(5)", "H1 = V(5) + V(4,1) + V(3,2)"]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_first_homology_at_width_three_is_stable(n):
    # H_1 = V(n) + V(n-1,1) + V(n-2,2): first-order representation stability
    iso = isotypic_profile(cell_complex(n, 3))
    assert [(shape, m) for shape, _, m in iso.terms(1)] == \
        [((n,), 1), ((n - 1, 1), 1), ((n - 2, 2), 1)]


def _profile_pin(n, width):
    """(Betti numbers, sha256 of the multiplicity tuple of every degree)."""
    iso = isotypic_profile(cell_complex(n, width))
    return iso.profile.betti, hashlib.sha256(repr(iso.multiplicities).encode()).hexdigest()


FROZEN_PROFILES = {
    (7, 3): ((1, 21, 2568, 6468, 3920),
             "e067f0173118fb907ed6f68b37d0e2d279b239bde61bf1ac74c4d75027b620f3"),
    (8, 2): ((1, 2815, 61194, 60900, 2520),
             "3b8f0dd9fb79ad5e2445ceb86fe2fc1f87a7d77993258e9073292849b4317bf9"),
}

STRETCH_PROFILES = {
    (8, 3): ((1, 28, 8385, 37464, 76146, 6720),
             "e1df8c3a4919131c158c12c3c5ad0be08f9a74880782c6a5aa673975b75311f6"),
    (8, 4): ((1, 28, 322, 21477, 54901, 36239, 2520),
             "7c3992b44e2cca988e7e834f60d09598c45ac02bbe716efce19edb5de090c7bb"),
    (9, 2): ((1, 7423, 359130, 858228, 143640),
             "d9214e012693faa403799fa26cb804e11ad4da68bd4d95c7d65ae1c1ce088218"),
    (9, 3): ((1, 36, 25625, 177336, 848946, 347760, 13440),
             "e8cb46b4b4062f1741fcb09e6668095eadc6c6546b3adc8929fae29a903a38d5"),
}


@pytest.mark.parametrize("n", range(1, 8))
def test_multiplicities_obey_grothendieck_lefschetz(n):
    # an identity from outside the repo for every irreducible; summed with
    # the dimensions it is the Stirling count of the Betti numbers
    assert_grothendieck_lefschetz(n, isotypic_profile(cell_complex(n, None)))


@pytest.mark.stretch
def test_stretch_multiplicities_obey_grothendieck_lefschetz():
    assert_grothendieck_lefschetz(8, isotypic_profile(cell_complex(8, None)))


@pytest.mark.parametrize("case", sorted(FROZEN_PROFILES), ids=str)
def test_larger_profiles_frozen(case):
    assert _profile_pin(*case) == FROZEN_PROFILES[case]


@pytest.mark.stretch
@pytest.mark.parametrize("case", sorted(STRETCH_PROFILES), ids=str)
def test_stretch_profiles_frozen(case):
    assert _profile_pin(*case) == STRETCH_PROFILES[case]

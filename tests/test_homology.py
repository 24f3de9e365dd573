import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

import stripconf.chains as chains
from stripconf.cells import (cell_complex, cell_index, enumerate_cells, parse_weighted_set,
                             permutohedron)
from stripconf.chains import (ChainVector, boundary, boundary_matrix, concat_all, is_cycle,
                              matched_count, morse_matrix)
from stripconf.cycles import Wheel, averaged_filter_cycle, wheel_cycle
import stripconf.homology as homology
from stripconf.homology import (
    CertificateError,
    ResourceRefusal,
    betti_number,
    boundary_rank,
    decomposition_check,
    estimate_cells,
    express,
    homology_profile,
    image_echelon,
    is_boundary,
)
from stripconf.linalg import Echelon, echelon_of_rows

from conftest import (assert_identical, full_scan_annihilator, random_chain, rank_mod_p,
                      run_optimized)
from test_chains import specs


# ---------------------------------------------------------------------------
# betti numbers


FROZEN_BETTI = {
    ((1, 1), 2): (1, 1),
    ((1, 1, 1), 2): (1, 7),
    ((1, 1, 1), 3): (1, 3, 2),
    ((1, 1, 1, 1), 2): (1, 31, 6),
    ((1, 1, 1, 1), 3): (1, 6, 29),
    ((1, 1, 1, 1, 1), 2): (1, 111, 110),
}


def test_betti_frozen_values():
    for (weights, width), betti in FROZEN_BETTI.items():
        spec = cell_complex(range(1, len(weights) + 1), width, weights)
        assert homology_profile(spec).betti == betti


def test_unrestricted_width_gives_classical_configuration_ranks():
    # stirling cycle numbers: poincare polynomial prod (1 + i t)
    for n in (2, 3, 4):
        coeffs = [1]
        for i in range(1, n):
            coeffs = [a + i * b for a, b in
                      zip(coeffs + [0], [0] + coeffs)]
        spec = cell_complex(range(1, n + 1), n)
        assert homology_profile(spec).betti == tuple(coeffs)


def test_six_disks_width_three_frozen_profile():
    # frozen from the cell-level path; the isotypic path reaches it in tier-1 time
    assert homology_profile(cell_complex(6, 3)).betti == (1, 15, 714, 780, 80)


def test_betti_number_refuses_a_negative_value(monkeypatch):
    spec = cell_complex(4, 2)
    monkeypatch.setattr(homology, "_ranks", lambda spec, degrees, cap: {k: 10 ** 6 for k in degrees})
    with pytest.raises(CertificateError, match="negative Betti number"):
        betti_number(spec, 1)


def test_betti_number_matches_profile():
    # one isotypic spec, then betti_ladder's two on the cell route
    for spec, betti in [(cell_complex((1, 2, 3), 3), (1, 3, 2)),
                        (permutohedron(6, 3), (1, 0, 49, 0, 0)),
                        (_weighted("1 2:2 3 4 5", 3), (1, 61, 124, 16))]:
        prof = homology_profile(spec)
        assert prof.betti == betti
        for d in range(len(prof.betti)):
            assert betti_number(spec, d) == prof.betti[d]
        assert tuple(boundary_rank(spec, d) for d in range(len(prof.ranks))) == prof.ranks
        assert betti_number(spec, -1) == 0
        assert betti_number(spec, 9) == 0


def test_profile_of_overweight_complex_is_empty():
    for spec in (cell_complex((1,), 2, (3,)), cell_complex((1, 2, 3), 2, (1, 3, 1)),
                 permutohedron((1, 2), 1, (2, 1))):
        prof = homology_profile(spec)
        assert (prof.betti, prof.cells, prof.ranks) == ((), (), (0,))
        assert betti_number(spec, 0) == boundary_rank(spec, 1) == 0


def test_profile_cells_and_euler():
    prof = homology_profile(cell_complex((1, 2, 3), 2))
    assert prof.cells == (6, 12)
    assert str(prof) == "betti b0=1 b1=7"


def test_weighted_profile():
    # one heavy disk forbids every 2-block at width 2: two contractible shells
    spec = cell_complex((1, 2), 2, (1, 2))
    assert homology_profile(spec).betti == (2,)


# ---------------------------------------------------------------------------
# boundary membership


def test_boundaries_are_recognized(rng):
    spec = cell_complex((1, 2, 3), 3)
    for d in (0, 1):
        for _ in range(6):
            u = random_chain(spec, d + 1, rng)
            ans = is_boundary(boundary(u), want_witness=True)
            assert ans
            assert boundary(ans.witness) == boundary(u)


def test_zero_chain_bounds():
    spec = cell_complex((1, 2), 2)
    z = ChainVector.zero(spec, 1)
    ans = is_boundary(z, want_witness=True)
    assert ans and ans.witness.is_zero()


def test_wheel_class_does_not_bound():
    z = wheel_cycle(Wheel((2, 1)), 2)
    ans = is_boundary(z)
    assert not ans
    cert = ans.certificate
    assert cert is not None
    assert sum(cert.get(c, 0) * v for c, v in z.coeffs.items()) != 0


def test_certificate_vanishes_on_boundaries(rng):
    spec = cell_complex((1, 2, 3), 2)
    z = averaged_filter_cycle((Wheel((1,)), Wheel((2,)), Wheel((3,))), 2)
    cert = is_boundary(z).certificate
    for _ in range(10):
        u = random_chain(spec, 2, rng)
        b = boundary(u)
        assert sum(cert.get(c, 0) * v for c, v in b.coeffs.items()) == 0


def test_is_boundary_rejects_non_cycles():
    spec = cell_complex((1, 2), 2)
    u = ChainVector(spec, 1, {((1, 2),): 1})
    with pytest.raises(ValueError):
        is_boundary(u)


def test_certificate_query_builds_one_tracked_echelon():
    from stripconf.basis import AMW, basis_cycle, enumerate_basis
    from stripconf.cells import enumerate_cells
    from stripconf.chains import boundary_matrix
    from stripconf.homology import _image_cache, image_echelon
    z = basis_cycle(enumerate_basis(5, 2, 1, AMW)[0], 2)
    spec = z.spec
    _image_cache.pop((spec, 1), None)
    ans = is_boundary(z, want_witness=True)
    assert not ans
    built = [e for key, e in _image_cache.items() if key[:2] == (spec, 1)]
    assert len(built) == 1 and built[0].track
    assert image_echelon(spec, 1) is built[0]
    cert = ans.certificate
    assert sum(cert.get(c, 0) * v for c, v in z.coeffs.items()) != 0
    cells = enumerate_cells(spec, 1)
    dots = {}
    for r, c, v in boundary_matrix(spec, 2).triplets:
        dots[c] = dots.get(c, 0) + cert.get(cells[r], 0) * v
    assert not any(dots.values())


def test_a_witness_query_reduces_the_cycle_once(monkeypatch):
    from stripconf.basis import AMW, basis_cycle, enumerate_basis
    z = basis_cycle(enumerate_basis(5, 2, 1, AMW)[0], 2)
    bounding = boundary(random_chain(z.spec, 2, random.Random(5), terms=6))
    is_boundary(z, want_witness=True)  # builds the tracked echelon
    calls = []
    real = Echelon._reduce

    def counted(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Echelon, "_reduce", counted)
    # the certificate comes from the reduction that found no coordinates
    assert is_boundary(z, want_witness=True).certificate
    assert is_boundary(bounding, want_witness=True).witness is not None
    assert len(calls) == 2


def test_corrupted_witness_raises_under_python_O():
    printed = run_optimized("""
        import sys
        from fractions import Fraction
        from stripconf.cells import cell_complex
        from stripconf.chains import ChainVector, boundary
        from stripconf.homology import CertificateError, is_boundary
        from stripconf.linalg import Echelon

        honest = Echelon.solve
        spec = cell_complex((1, 2, 3), 2)
        z = boundary(ChainVector(spec, 1, {((1, 2), (3,)): 1}))
        # doubled, then halved: the halved witness has non-integral
        # coefficients, so the integer comparison scales it first
        for factor in (2, Fraction(1, 2)):
            def scaled(self, vec):
                out, y = honest(self, vec)
                return None if out is None else {t: factor * v for t, v in out.items()}, y
            Echelon.solve = scaled
            try:
                is_boundary(z, want_witness=True)
            except CertificateError:
                print("CertificateError", sys.flags.optimize)
    """)
    assert printed == ["CertificateError", "1"] * 2


def test_planted_certificates_raise_under_python_O():
    printed = run_optimized("""
        import sys
        from stripconf.basis import AMW, basis_cycle, enumerate_basis
        from stripconf.homology import CertificateError, is_boundary
        from stripconf.linalg import Echelon

        honest = Echelon.annihilator

        def shifted(self, vec):
            # one pivot entry off by one: that pivot's row no longer vanishes
            y = honest(self, vec)
            p = next(c for c in y if c in self.pivot_row)
            y[p] += 1
            return y

        def blind(self, vec):
            # the zero functional vanishes on every row and on the cycle
            return dict.fromkeys(honest(self, vec), 0)

        # its certificate has one pivot entry besides the residue column
        z = basis_cycle(enumerate_basis(3, 3, 1, AMW)[0], 3)
        for planted in (shifted, blind):
            Echelon.annihilator = planted
            try:
                is_boundary(z)
            except CertificateError:
                print("CertificateError", sys.flags.optimize)
    """)
    assert printed == ["CertificateError", "1"] * 2


def test_scaled_express_coordinates_raise_under_python_O():
    printed = run_optimized("""
        import sys
        from fractions import Fraction
        from stripconf.basis import AMW, basis_cycle, enumerate_basis
        from stripconf.homology import CertificateError, express
        from stripconf.linalg import Echelon

        honest = Echelon.coordinates
        # a cycle that does not bound, written in a basis of itself
        z = basis_cycle(enumerate_basis(3, 2, 1, AMW)[0], 2)
        assert express(z, [z]).coefficients == (1,)
        for factor in (2, Fraction(1, 2)):
            def scaled(self, vec):
                out = honest(self, vec)
                return None if out is None else {t: factor * v for t, v in out.items()}
            Echelon.coordinates = scaled
            try:
                express(z, [z])
            except CertificateError:
                print("CertificateError", sys.flags.optimize)
    """)
    assert printed == ["CertificateError", "1"] * 2


@pytest.mark.parametrize("n, width, k", [(5, 2, 0), (5, 2, 1), (5, 3, 0), (5, 3, 2), (6, 2, 2)])
def test_certificates_match_the_full_scan(n, width, k):
    from stripconf.basis import AMW, basis_cycle, enumerate_basis
    rng = random.Random(1000 * n + 10 * width + k)
    spec = cell_complex(n, width)
    ech, index = image_echelon(spec, k), cell_index(spec, k)
    words = enumerate_basis(n, width, k, AMW)
    for _ in range(12):
        z = (boundary(random_chain(spec, k + 1, rng, terms=8))
             + basis_cycle(rng.choice(words), width).scale(rng.choice((-1, 2))))
        vec = z.to_column(index)
        y = ech.annihilator(vec)
        assert y is not None
        assert_identical(y, full_scan_annihilator(ech, vec))
        assert ech.certifies(y, vec)


# ---------------------------------------------------------------------------
# express


def test_express_roundtrip(rng):
    spec = cell_complex((1, 2), 2)
    w = wheel_cycle(Wheel((2, 1)), 2)
    u = random_chain(spec, 2, rng)  # empty degree, stays zero
    z = w.scale(3)
    res = express(z, [w])
    assert res.ok
    assert res.coefficients == (Fraction(3),)


def test_express_modulo_boundaries(rng):
    from stripconf.chains import concat
    z = concat(wheel_cycle(Wheel((2, 1)), 3), wheel_cycle(Wheel((3,)), 3))
    u = random_chain(z.spec, 2, rng)
    res = express(z + boundary(u), [z])
    assert res.ok and res.coefficients == (Fraction(1),)
    # the averaged filter on three singletons is trivial once they all fit
    af = averaged_filter_cycle((Wheel((1,)), Wheel((2,)), Wheel((3,))), 3)
    res = express(af, [z])
    assert res.ok and res.coefficients == (Fraction(0),)


def test_express_failure_leaves_residual():
    w12 = wheel_cycle(Wheel((2, 1)), 2, weights=None)
    spec = cell_complex((1, 2, 3), 2)
    # promote W(2,1) into the three-disk complex by appending the third disk
    from stripconf.chains import concat
    a = concat(wheel_cycle(Wheel((2, 1)), 2), wheel_cycle(Wheel((3,)), 2))
    b = concat(wheel_cycle(Wheel((3, 1)), 2), wheel_cycle(Wheel((2,)), 2))
    res = express(b, [a])
    assert not res.ok
    assert res.residual is not None and not res.residual.is_zero()
    assert res.coefficients is None


def test_express_on_dependent_and_empty_bases(rng):
    from stripconf.chains import concat
    z = concat(wheel_cycle(Wheel((2, 1)), 3), wheel_cycle(Wheel((3,)), 3))
    chain = z.scale(3) + boundary(random_chain(z.spec, 2, rng))
    for basis in ([z, z], [z, z.scale(2)], []):
        res = express(chain, basis)
        assert res.ok == bool(basis)
        if res.ok:
            remainder = chain
            for c, b in zip(res.coefficients, basis):
                remainder = remainder - b.scale(c)
            assert len(res.coefficients) == len(basis)
            assert is_boundary(remainder)
    # with no basis the residual is the chain modulo the boundaries
    left = express(chain, []).residual
    assert not left.is_zero() and is_boundary(chain - left)
    assert express(chain - z.scale(3), []).coefficients == ()


def test_express_validates_degree():
    w = wheel_cycle(Wheel((2, 1)), 2)
    unit = ChainVector(w.spec, 0, {((1,), (2,)): 1})
    with pytest.raises(ValueError):
        express(unit, [w])


def test_express_rejects_a_basis_that_is_not_a_cycle():
    w = wheel_cycle(Wheel((2, 1)), 2)
    cell = ChainVector(w.spec, 1, {((1, 2),): 1})
    with pytest.raises(ValueError, match="expects cycles"):
        express(w, [cell])


# ---------------------------------------------------------------------------
# resource guard and decomposition


def test_estimate_cells_counts_exactly_for_unit_weights():
    spec = cell_complex((1, 2, 3), 2)
    assert estimate_cells(spec, 0) == 6
    assert estimate_cells(spec, 1) == 12
    assert estimate_cells(spec) == 18
    for n in range(6):
        for width in [*range(1, n + 1), None]:
            for make in (cell_complex, permutohedron):
                spec = make(n, width)
                for d in range(-1, n + 1):
                    assert estimate_cells(spec, d) == len(enumerate_cells(spec, d)), \
                        (spec.describe(), d)


def test_unbounded_width():
    assert homology_profile(cell_complex(3, None)).betti == (1, 3, 2)
    assert homology_profile(permutohedron(4, None)).betti == \
        homology_profile(permutohedron(4, 4)).betti


def test_empty_complex_is_one_point():
    for kind in ("cell", "perm"):
        unit = concat_all([], 2, kind)
        assert estimate_cells(unit.spec) == 1
        prof = homology_profile(unit.spec)
        assert prof.cells == (1,) and prof.betti == (1,)
        ans = is_boundary(unit)
        assert not ans and ans.certificate == {(): 1}


def test_repeated_unit_weight_profile_reads_no_boundary_matrix(monkeypatch):
    # unit-weight ordered complexes rank isotypic blocks, every time
    spec = cell_complex(4, 2)
    first = homology_profile(spec)

    def refuse(*args, **kwargs):
        raise AssertionError("a unit-weight profile read cells")

    monkeypatch.setattr(homology, "boundary_matrix", refuse)
    monkeypatch.setattr(homology, "echelon_of_rows", refuse)
    monkeypatch.setattr(homology, "Echelon", refuse)
    assert homology_profile(spec) == first


def test_repeated_cell_level_profile_builds_no_echelon(monkeypatch):
    # unit-weight ordered complexes rank isotypic blocks again; permutohedra
    # and weighted complexes are ranked by cached cell-level echelons
    specs = (permutohedron(4, 2), cell_complex((1, 2, 3), 3, (1, 2, 1)))
    first = [homology_profile(spec) for spec in specs]

    def refuse(*args, **kwargs):
        raise AssertionError("a repeated profile built an echelon")

    monkeypatch.setattr(homology, "echelon_of_rows", refuse)
    monkeypatch.setattr(homology, "Echelon", refuse)
    assert [homology_profile(spec) for spec in specs] == first


def test_resource_refusal():
    spec = cell_complex(range(1, 7), 3)
    with pytest.raises(ResourceRefusal):
        homology_profile(spec, max_cells=10)
    with pytest.raises(ResourceRefusal):
        betti_number(spec, 1, max_cells=10)


def test_refusal_at_forty_labels_is_immediate():
    # neither the top degree nor the cell estimate walks the label subsets
    start = time.process_time()
    for make in (cell_complex, permutohedron):
        with pytest.raises(ResourceRefusal):
            homology_profile(make(40, 3))
    assert time.process_time() - start < 0.5


# 28 weighted labels on which the exact top-degree search at width 10 runs
# for well over 20 s; the cell guard has to come before it
HARD_PACKING = [7] * 4 + [6] * 7 + [5] * 3 + [4, 4, 3, 3] + [2] * 4 + [1] * 6


def test_refusal_of_a_hard_packing_is_immediate():
    spec = cell_complex(len(HARD_PACKING), 10, HARD_PACKING)
    start = time.process_time()
    with pytest.raises(ResourceRefusal):
        homology_profile(spec)
    with pytest.raises(ResourceRefusal):
        betti_number(spec, 3)
    assert time.process_time() - start < 0.5


def test_boundary_rank_refuses_a_hard_packing_at_once():
    spec = cell_complex(len(HARD_PACKING), 10, HARD_PACKING)
    start = time.process_time()
    with pytest.raises(ResourceRefusal):
        boundary_rank(spec, 3)
    assert time.process_time() - start < 0.5
    # the cap is the one betti_number applies: block rows on the isotypic path
    with pytest.raises(ResourceRefusal, match="isotypic block rows"):
        boundary_rank(cell_complex(6, 3), 2, max_cells=1_000)
    assert boundary_rank(cell_complex(6, 3), 2, max_cells=10_000) == boundary_rank(
        cell_complex(6, 3), 2)


def test_membership_refuses_a_hard_packing_at_once():
    spec = cell_complex(len(HARD_PACKING), 10, HARD_PACKING)
    z = ChainVector(spec, 0, {tuple((a,) for a in spec.labels): 1})
    start = time.process_time()
    with pytest.raises(ResourceRefusal):
        is_boundary(z)
    with pytest.raises(ResourceRefusal):
        express(z, [z])
    assert time.process_time() - start < 0.5


def test_isotypic_path_is_capped_by_block_rows():
    # cell(6;3): 24 orbits of 720 cells (17,280), and the irreducibles of S_6
    # have dimensions summing to 76, so its blocks hold 24 * 76 = 1,824 rows
    spec = cell_complex(6, 3)
    assert homology_profile(spec, max_cells=10_000).betti == (1, 15, 714, 780, 80)
    with pytest.raises(ResourceRefusal, match="1824 isotypic block rows"):
        homology_profile(spec, max_cells=1_000)
    # membership queries work on cells, which the cap still counts
    z = averaged_filter_cycle((Wheel((1,)), Wheel((2,)), Wheel((3,))), 3)
    z = concat_all([z, wheel_cycle(Wheel((5, 4)), 3), wheel_cycle(Wheel((6,)), 3)], 3)
    with pytest.raises(ResourceRefusal, match="cells"):
        is_boundary(z, max_cells=10_000)


def test_decomposition_check_small():
    rep = decomposition_check((1, 2, 3), 2)
    assert rep.ok
    assert rep.sectors == 6
    assert rep.left == (1, 7)
    assert "matches" in str(rep)


def test_decomposition_check_weighted():
    rep = decomposition_check((1, 2), 3, {1: 1, 2: 2})
    assert rep.ok
    assert rep.sectors == 2


def test_decomposition_sectors_share_profiles_by_weight_pattern(monkeypatch):
    # each sector's permutohedron sits on positions 1..m, so the 120 sectors
    # of five unit labels ask for at most one profile per composition of 5
    real = homology.homology_profile
    asked = set()

    def spy(spec, **kwargs):
        if spec.kind == "perm":
            asked.add(spec)
        return real(spec, **kwargs)

    monkeypatch.setattr(homology, "homology_profile", spy)
    rep = decomposition_check(5, 3)
    assert len(asked) <= 16
    assert all(spec.labels == tuple(range(1, spec.n + 1)) for spec in asked)
    assert (rep.ok, rep.left, rep.right, rep.sectors) == \
        (True, (1, 10, 169, 40), (1, 10, 169, 40), 120)


def test_decomposition_check_rejects_a_sector_above_the_top(monkeypatch):
    # a sector claiming homology above the ordered complex's top degree is
    # a failed check, not a silently dropped term
    real = homology.homology_profile

    def inflated(spec, **kwargs):
        prof = real(spec, **kwargs)
        if spec.kind == "perm":
            prof = dataclasses.replace(prof, betti=prof.betti + (0,) * spec.n + (1,))
        return prof

    monkeypatch.setattr(homology, "homology_profile", inflated)
    with pytest.raises(CertificateError, match="above the top degree"):
        decomposition_check((1, 2, 3), 2)


def test_permutohedron_profile():
    prof = homology_profile(permutohedron(3, 2))
    assert prof.cells == (6, 6)
    assert prof.betti == (1, 1)


# ---------------------------------------------------------------------------
# clearing: cell-level echelons built from the top degree down


def _weighted(text, width, make=cell_complex):
    labels, weights = parse_weighted_set(text)
    return make(labels, width, weights)


CLEARED_SPECS = [permutohedron(n, w) for n in range(1, 7) for w in (2, 3)] + [
    _weighted("1 2:2 3 4 5", 3),
    _weighted("1:2 2 3 4:2 5 6", 3, permutohedron),
]


@pytest.mark.parametrize("spec", CLEARED_SPECS, ids=lambda spec: spec.describe())
def test_cleared_ranks_match_the_uncleared_echelons(monkeypatch, spec):
    top = spec.top_degree()
    full = {k: echelon_of_rows(boundary_matrix(spec, k).columns()).rank
            for k in range(1, top + 1)}
    # every echelon below the top is cleared by the one above it, built
    # first, whatever order the ranks are asked in
    monkeypatch.setattr(homology, "_image_cache", {})
    assert {k: image_echelon(spec, k - 1).rank for k in full} == full
    assert {k: boundary_rank(spec, k) for k in full} == full
    monkeypatch.setattr(homology, "_image_cache", {})
    assert {k: boundary_rank(spec, k) for k in reversed(full)} == full
    monkeypatch.setattr(homology, "_image_cache", {})
    assert homology_profile(spec).ranks == (0, *full.values(), 0)[:top + 2]


def test_a_rank_builds_the_degrees_above_it_top_down(monkeypatch):
    spec = permutohedron(6, 3)
    built = []
    real = homology.echelon_of_rows

    def spy(rows, track=False):
        built.append(sum(1 for row in rows if row))
        return real(rows, track)

    monkeypatch.setattr(homology, "_image_cache", {})
    monkeypatch.setattr(homology, "echelon_of_rows", spy)
    assert image_echelon(spec, 1).rank == 1081
    # d_4, d_3 and d_2 in that order, each without the pivots of the one above
    assert built == [20, 450 - 20, 1560 - 430]
    assert sorted(k for s, k in homology._image_cache if s == spec) == [1, 2, 3]


def test_a_rank_builds_the_morse_degrees_above_it_top_down(monkeypatch):
    spec = permutohedron(6, 3)
    # 610 of the 4,550 cells are critical for the least-label matching
    assert [morse_matrix(spec, k).rows for k in range(1, 5)] + [morse_matrix(spec, 4).cols] \
        == [120, 240, 210, 40, 0]
    assert [matched_count(spec, k) for k in range(6)] == [0, 600, 960, 390, 20, 0]
    built = []
    real = homology.echelon_of_rows

    def spy(rows, track=False):
        built.append(sum(1 for row in rows if row))
        return real(rows, track)

    monkeypatch.setattr(homology, "_image_cache", {})
    monkeypatch.setattr(homology, "echelon_of_rows", spy)
    assert boundary_rank(spec, 2) == 960 + 121
    # d^M_4, d^M_3 and d^M_2 in that order, each without the pivots of the one above
    assert built == [0, 40, 210 - 40]
    assert sorted(key[1:] for key in homology._image_cache if key[0] == spec) == [
        (1, "morse"), (2, "morse"), (3, "morse")]


def test_a_membership_query_builds_the_degrees_above_it_top_down(monkeypatch):
    spec = permutohedron(6, 3)
    z = boundary(ChainVector(spec, 2, {enumerate_cells(spec, 2)[0]: 1}))
    built = []
    real = homology.echelon_of_rows

    def spy(rows, track=False):
        built.append(sum(1 for row in rows if row))
        return real(rows, track)

    monkeypatch.setattr(homology, "_image_cache", {})
    monkeypatch.setattr(homology, "echelon_of_rows", spy)
    assert is_boundary(z)
    # d_4, d_3 and d_2, each without the pivots of the one above
    assert built == [20, 430, 1130]


def _membership_answers(spec, chains):
    """(witness coefficients, certificate) of each chain, asked both ways."""
    out = []
    for z in chains:
        for want in (False, True):
            ans = is_boundary(z, want_witness=want)
            out.append((ans.witness.coeffs if ans.witness else None, ans.certificate))
    return out


def test_witnesses_and_certificates_do_not_depend_on_what_ran_first(monkeypatch):
    spec = cell_complex(5, 3)
    cells = enumerate_cells(spec, 0)
    # the difference of two vertices bounds; a lone vertex does not
    chains = [ChainVector(spec, 0, {cells[0]: 1, cells[-1]: -1}),
              ChainVector(spec, 0, {cells[7]: 1})]
    monkeypatch.setattr(homology, "_image_cache", {})
    cold = _membership_answers(spec, chains)
    assert cold[1][0] and cold[2][1]
    monkeypatch.setattr(homology, "_image_cache", {})
    from stripconf.basis import AMW, basis_cycle, enumerate_basis
    for k in (1, 2):
        is_boundary(basis_cycle(enumerate_basis(5, 3, k, AMW)[0], 3), want_witness=True)
    assert _membership_answers(spec, chains) == cold

    spec = permutohedron(5, 3)
    up = enumerate_cells(spec, 2)
    chains = [boundary(ChainVector(spec, 2, {up[3]: 1, up[-1]: 2})),
              ChainVector(spec, 0, {enumerate_cells(spec, 0)[5]: 1})]
    monkeypatch.setattr(homology, "_image_cache", {})
    cold = _membership_answers(spec, chains)
    assert cold[1][0] and cold[2][1]
    monkeypatch.setattr(homology, "_image_cache", {})
    homology_profile(spec)
    assert _membership_answers(spec, chains) == cold


def test_the_sweep_guard_counts_every_degree_it_builds(monkeypatch):
    # perm(6;3) has 720, 1800, 1560, 450 and 20 cells in degrees 0-4
    spec = permutohedron(6, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a refused rank built a boundary matrix")

    monkeypatch.setattr(homology, "_image_cache", {})
    monkeypatch.setattr(homology, "boundary_matrix", refuse)
    with pytest.raises(ResourceRefusal, match=r"4550 cells across degrees \[0, 1, 2, 3, 4\]"):
        boundary_rank(spec, 1, max_cells=3_000)  # degrees 0 and 1 hold 2,520
    with pytest.raises(ResourceRefusal, match="3830 cells"):
        boundary_rank(spec, 2, max_cells=3_500)  # degrees 1 and 2 hold 3,360
    with pytest.raises(ResourceRefusal, match="4550 cells"):
        betti_number(spec, 1, max_cells=4_000)
    monkeypatch.undo()
    monkeypatch.setattr(homology, "_image_cache", {})
    assert boundary_rank(spec, 2, max_cells=3_830) == 1081


def test_the_membership_guard_counts_every_degree_it_builds(monkeypatch):
    spec = permutohedron(6, 3)
    z = boundary(ChainVector(spec, 2, {enumerate_cells(spec, 2)[0]: 1}))

    def refuse(*args, **kwargs):
        raise AssertionError("a refused query built a boundary matrix")

    monkeypatch.setattr(homology, "_image_cache", {})
    monkeypatch.setattr(homology, "boundary_matrix", refuse)
    with pytest.raises(ResourceRefusal, match=r"3830 cells across degrees \[1, 2, 3, 4\]"):
        is_boundary(z, max_cells=3_500)  # degrees 1 and 2 hold 3,360


def _plant_a_non_cycle(spec):
    """Cache, one degree above degree 0, an echelon whose row is one cell."""
    planted = Echelon()
    planted.absorb({0: 1})
    homology._image_cache[(spec, 1)] = planted


def test_clearing_checks_the_rows_it_relies_on(monkeypatch):
    spec = permutohedron(4, 2)
    monkeypatch.setattr(homology, "_image_cache", {})
    _plant_a_non_cycle(spec)
    with pytest.raises(CertificateError, match="not a cycle"):
        image_echelon(spec, 0)
    with pytest.raises(CertificateError, match="not a cycle"):
        is_boundary(ChainVector(spec, 0, {enumerate_cells(spec, 0)[0]: 1}))


def test_clearing_check_raises_under_python_O():
    printed = run_optimized("""
        import sys
        import stripconf.homology as homology
        from stripconf.cells import enumerate_cells, permutohedron
        from stripconf.chains import ChainVector
        from stripconf.linalg import Echelon

        spec = permutohedron(4, 2)
        planted = Echelon()
        planted.absorb({0: 1})
        homology._image_cache[(spec, 1)] = planted
        try:
            homology.is_boundary(ChainVector(spec, 0, {enumerate_cells(spec, 0)[0]: 1}))
        except homology.CertificateError:
            print("CertificateError", sys.flags.optimize)
    """)
    assert printed == ["CertificateError", "1"]


def test_clearing_checks_an_ordered_echelon(monkeypatch):
    spec = permutohedron(4, 2)
    monkeypatch.setattr(homology, "_image_cache", {})
    # columns 3 and 5 are touched once and come before column 2, so the
    # row e_2 + e_5 leads at cell 5 though 2 < 5; neither row is a cycle
    planted = echelon_of_rows([{2: 1, 5: 1}, {2: 1, 3: 1}])
    assert planted.order == [3, 5, 2]
    assert [planted.column(p) for p in planted.pivots_of] == [5, 3]
    homology._image_cache[(spec, 1)] = planted
    with pytest.raises(CertificateError, match="pivot column 5 is not a cycle"):
        image_echelon(spec, 0)
    with pytest.raises(CertificateError, match="pivot column 5 is not a cycle"):
        is_boundary(ChainVector(spec, 0, {enumerate_cells(spec, 0)[0]: 1}))


def test_ordered_clearing_check_raises_under_python_O():
    printed = run_optimized("""
        import sys
        import stripconf.homology as homology
        from stripconf.cells import enumerate_cells, permutohedron
        from stripconf.chains import ChainVector
        from stripconf.linalg import echelon_of_rows

        spec = permutohedron(4, 2)
        homology._image_cache[(spec, 1)] = echelon_of_rows([{2: 1, 5: 1}, {2: 1, 3: 1}])
        try:
            homology.is_boundary(ChainVector(spec, 0, {enumerate_cells(spec, 0)[0]: 1}))
        except homology.CertificateError as err:
            print("CertificateError", sys.flags.optimize, str(err).split()[6])
    """)
    assert printed == ["CertificateError", "1", "5"]


def test_a_non_unit_matched_incidence_is_refused(monkeypatch):
    monkeypatch.setattr(homology, "_image_cache", {})
    # double the incidence of the matched pair (1 2) -> (1)|(2)
    table = chains._split_table(frozenset())
    (first, sign), *rest = table[(1, 2)][0]
    monkeypatch.setitem(table, (1, 2), (((first, 2 * sign), *rest), table[(1, 2)][1]))
    with pytest.raises(CertificateError, match=r"matched incidences \[-2, -1\] in degree 2"):
        boundary_rank(permutohedron(4, 2), 1)


def test_a_critical_cell_left_out_of_the_count_is_refused(monkeypatch):
    spec = _weighted("1 2:2 3", 3)  # 2 and 8 critical cells in degrees 0 and 1, the top
    real = chains._critical_cells
    monkeypatch.setattr(homology, "_image_cache", {})
    monkeypatch.setattr(chains, "_critical_cells",
                        lambda s, k: real(s, k)[:-1] if k == 1 else real(s, k))
    with pytest.raises(CertificateError,
                       match=r"11 critical and matched cells in degree 1 .*, not 12"):
        boundary_rank(spec, 1)


def test_a_morse_echelon_row_that_is_no_cycle_is_refused(monkeypatch):
    spec = permutohedron(4, 2)
    monkeypatch.setattr(homology, "_image_cache", {})
    planted = Echelon()
    planted.absorb({0: 1})  # d^M of the first critical 1-cell is not zero
    homology._image_cache[(spec, 1, "morse")] = planted
    with pytest.raises(CertificateError, match="not a cycle"):
        boundary_rank(spec, 1)


def test_planted_morse_faults_raise_under_python_O():
    printed = run_optimized("""
        import sys
        import stripconf.chains as chains
        import stripconf.homology as homology
        from stripconf.cells import cell_complex, permutohedron
        from stripconf.linalg import Echelon

        def refused(spec):
            homology._image_cache.clear()
            try:
                homology.boundary_rank(spec, 1)
            except homology.CertificateError:
                print("CertificateError", sys.flags.optimize)

        table = chains._split_table(frozenset())
        entry = table[(1, 2)]
        (first, sign), *rest = entry[0]
        table[(1, 2)] = (((first, 2 * sign), *rest), entry[1])
        refused(permutohedron(4, 2))
        table[(1, 2)] = entry

        real = chains._critical_cells
        chains._critical_cells = lambda s, k: real(s, k)[:-1] if k == 1 else real(s, k)
        refused(cell_complex(3, 3, (1, 2, 1)))
        chains._critical_cells = real

        planted = Echelon()
        planted.absorb({0: 1})
        homology._image_cache.clear()
        homology._image_cache[(permutohedron(4, 2), 1, "morse")] = planted
        try:
            homology.boundary_rank(permutohedron(4, 2), 1)
        except homology.CertificateError:
            print("CertificateError", sys.flags.optimize)
    """)
    assert printed == ["CertificateError", "1"] * 3


@settings(max_examples=60, deadline=None)
@given(specs(widths=(1, 2, 3, 4, 5, 6, None)).filter(
    lambda spec: sum(len(enumerate_cells(spec, d)) for d in range(spec.n)) <= 2500))
def test_boundary_ranks_match_the_cell_level_echelons(spec):
    top = spec.top_degree()
    want = {}
    for k in range(1, top + 1):
        columns = boundary_matrix(spec, k).columns()
        want[k] = echelon_of_rows(columns).rank
        assert rank_mod_p(columns) == want[k]
        # the Morse complex of every spec, whatever route its ranks take
        assert matched_count(spec, k) + echelon_of_rows(morse_matrix(spec, k).columns()).rank \
            == want[k]
    with pytest.MonkeyPatch.context() as mp:
        for k in want:  # each degree alone, built cold
            mp.setattr(homology, "_image_cache", {})
            assert boundary_rank(spec, k) == want[k]
        mp.setattr(homology, "_image_cache", {})  # every degree in one call
        assert homology_profile(spec).ranks[1:top + 1] == tuple(want.values())


@pytest.mark.parametrize("spec", [permutohedron(5, 3), permutohedron(6, 3),
                                  _weighted("1 2:2 3 4 5", 3)],
                         ids=lambda spec: spec.describe())
def test_cleared_sweep_ranks_match_rank_mod_p(monkeypatch, spec):
    monkeypatch.setattr(homology, "_image_cache", {})
    top = spec.top_degree()
    ranks = homology_profile(spec).ranks
    assert ranks == (0, *(rank_mod_p(boundary_matrix(spec, k).columns())
                          for k in range(1, top + 1)), 0)
    # every degree below the top was eliminated in count order and cleared
    assert all(image_echelon(spec, k).order for k in range(top))


def test_count_order_pins_the_cleared_echelon_size(monkeypatch):
    spec = permutohedron(6, 3)
    monkeypatch.setattr(homology, "_image_cache", {})
    assert image_echelon(spec, 0).rank == 719
    ech = homology._image_cache[(spec, 1)]  # the image of d_2, cleared by d_3's
    assert ech.rank == 1081
    # 32,169 entries when the columns are eliminated in index order
    assert sum(len(row) for row in ech.rows) == 9246


def _kernel_vectors(spec, k):
    """Cycles e_j - sum c_i e_i, one per column of d_k that depends on the
    columns before it."""
    ech, out = Echelon(track=True), []
    for j, col in enumerate(boundary_matrix(spec, k).columns()):
        if not ech.absorb(col, tag=j):
            out.append({j: 1, **{i: -c for i, c in ech.coordinates(col).items()}})
    return out


@pytest.mark.parametrize("spec", [cell_complex(4, 3), permutohedron(5, 3),
                                  _weighted("1 2:2 3 4 5", 3)],
                         ids=lambda spec: spec.describe())
def test_boundary_ranks_mod_p_match(spec):
    for k in range(1, spec.top_degree() + 1):
        columns = boundary_matrix(spec, k).columns()
        assert rank_mod_p(columns) == echelon_of_rows(columns).rank


def test_block_ranks_mod_p_match():
    from stripconf.equivariant import block_ranks
    for spec in (cell_complex(5, 2), cell_complex(5, 3), cell_complex(6, 3)):
        degrees = range(1, spec.top_degree() + 1)
        blocks = block_ranks(spec, degrees)  # every degree below the top cleared
        for k in degrees:
            assert rank_mod_p(boundary_matrix(spec, k).columns()) == \
                sum(f * ranks[k] for _, f, ranks in blocks)
            # one asked degree clears nothing
            assert [ranks[k] for _, _, ranks in block_ranks(spec, [k])] == \
                [ranks[k] for _, _, ranks in blocks]


@pytest.mark.parametrize("spec", [permutohedron(5, 3), _weighted("1 2:2 3 4 5", 3)],
                         ids=lambda spec: spec.describe())
def test_cleared_echelons_answer_membership(monkeypatch, rng, spec):
    monkeypatch.setattr(homology, "_image_cache", {})
    homology_profile(spec)
    verdicts = set()
    for k in range(spec.top_degree()):
        cells, index = enumerate_cells(spec, k), cell_index(spec, k)
        columns = boundary_matrix(spec, k + 1).columns()
        truth = echelon_of_rows(columns)
        kernel = _kernel_vectors(spec, k) if k else [{j: 1} for j in range(len(cells))]
        chains = []
        for _ in range(4):
            combo = {}
            for vec in rng.sample(kernel, min(3, len(kernel))):
                a = rng.choice((-2, -1, 1, 3))
                for c, v in vec.items():
                    combo[c] = combo.get(c, 0) + a * v
            chains.append(ChainVector(spec, k, {cells[c]: v for c, v in combo.items() if v}))
            chains.append(boundary(random_chain(spec, k + 1, rng)))
        for z in chains:
            column = z.to_column(index)
            bounds = not truth.residue(column)
            verdicts.add(bounds)
            for want in (False, True):
                ans = is_boundary(z, want_witness=want)
                assert bool(ans) == bounds
                if ans and want:
                    assert boundary(ans.witness) == z
                if not ans:
                    y = {index[c]: v for c, v in ans.certificate.items()}
                    assert sum(y.get(r, 0) * v for r, v in column.items()) != 0
                    assert not any(sum(y.get(r, 0) * v for r, v in col.items())
                                   for col in columns)
    assert verdicts == {False, True}


def test_permutohedron_seven_three_profile(monkeypatch):
    monkeypatch.setattr(homology, "_image_cache", {})
    prof = homology_profile(permutohedron(7, 3))
    assert prof.betti == (1, 0, 209, 0, 0)
    assert prof.cells == (5040, 15120, 16800, 7560, 1050)
    assert prof.ranks == (0, 5039, 10081, 6510, 1050, 0)


@pytest.mark.stretch
def test_permutohedron_eight_three_profile(monkeypatch):
    # the values of the cell-level route, which took 9-11 s and 370 MB
    monkeypatch.setattr(homology, "_image_cache", {})
    prof = homology_profile(permutohedron(8, 3))
    assert prof.cells == (40320, 141120, 191520, 117600, 29400, 1680)
    assert prof.ranks == (0, 40319, 100801, 89950, 27650, 1680, 0)
    assert prof.betti == (1, 0, 769, 0, 70, 0)


def test_decomposition_check_seven_labels_width_two(monkeypatch):
    monkeypatch.setattr(homology, "_image_cache", {})
    rep = decomposition_check(tuple(range(1, 8)), 2)
    assert rep.ok and rep.sectors == 5040
    assert rep.left == (1, 1023, 9212, 3150)


@pytest.mark.stretch
def test_decomposition_check_seven_labels_width_three(monkeypatch):
    monkeypatch.setattr(homology, "_image_cache", {})
    rep = decomposition_check(tuple(range(1, 8)), 3)
    assert rep.ok and rep.sectors == 5040
    assert rep.left == (1, 21, 2568, 6468, 3920)

import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction
from math import perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripconf import chains
from stripconf.cells import (
    cell_complex,
    cell_index,
    enumerate_cells,
    format_cell,
    parse_weighted_set,
    permutohedron,
    wlength,
    wsgn,
)
from stripconf.chains import (
    ChainVector,
    boundary,
    boundary_cell,
    boundary_matrix,
    bounds,
    concat,
    concat_all,
    is_cycle,
    merge_specs,
    verify_boundary_squared,
)
from stripconf.homology import homology_profile

from conftest import random_chain, rational_boundary


def test_boundary_of_a_two_block():
    spec = cell_complex(2, 2)
    d = boundary(ChainVector(spec, 1, {((1, 2),): 1}))
    assert d.coeffs == {((1,), (2,)): -1, ((2,), (1,)): 1}


def test_boundary_subsequences_keep_order():
    spec = cell_complex(3, 3)
    d = boundary(ChainVector(spec, 2, {((3, 1, 2),): 1}))
    # every face splits (3 1 2) into two complementary subsequences
    for cell in d.coeffs:
        merged = [a for b in cell for a in b]
        assert sorted(merged) == [1, 2, 3]
        for b in cell:
            pos = [(3, 1, 2).index(a) for a in b]
            assert pos == sorted(pos)
    assert len(d.coeffs) == 6


def test_weighted_boundary_sign_uses_weight():
    # the front block contributes (-1)^{its weight}, not (-1)^{its length}
    labels, weights = parse_weighted_set("1:2 2:1")
    spec = cell_complex(labels, 3, weights)
    d = boundary(ChainVector(spec, 1, {((1, 2),): 1}))
    assert d.coeffs == {((1,), (2,)): 1, ((2,), (1,)): -1}


def test_boundary_squared_vanishes_small():
    for n, w in [(3, 2), (4, 2), (4, 3), (3, 3)]:
        report = verify_boundary_squared(cell_complex(n, w))
        assert report.ok, report
    report = verify_boundary_squared(permutohedron(4, 2))
    assert report.ok


def test_boundary_squared_weighted(rng):
    for _ in range(6):
        n = rng.randint(2, 4)
        weights = tuple(rng.randint(1, 3) for _ in range(n))
        if sum(weights) > 7:
            continue
        spec = cell_complex(n, rng.randint(2, 4), weights)
        assert verify_boundary_squared(spec).ok


def test_leibniz_rule_on_concat(rng):
    left = cell_complex((1, 2), 3)
    right = cell_complex((3, 4), 3)
    for _ in range(10):
        da = rng.choice((0, 1))
        db = rng.choice((0, 1))
        a = random_chain(left, da, rng)
        b = random_chain(right, db, rng)
        if a.is_zero() or b.is_zero():
            continue
        lhs = boundary(concat(a, b))
        # (-1)^{wdim a}, the weighted dimension sum of (wlength - 1) over blocks
        sign = (-1) ** next(sum(wlength(b, left) - 1 for b in c) for c in a.coeffs)
        rhs = concat(boundary(a), b) + concat(a, boundary(b)).scale(sign)
        assert lhs == rhs


def test_chain_equality_compares_coefficients():
    spec = cell_complex(2, 2)
    a, b = ((1,), (2,)), ((2,), (1,))
    assert ChainVector(spec, 0, {a: 2}) == ChainVector(spec, 0, {a: Fraction(2)})
    assert ChainVector(spec, 0, {a: 2, b: 0}) == ChainVector(spec, 0, {a: 2})
    assert ChainVector(spec, 0, {a: 2}) != ChainVector(spec, 0, {a: 2, b: 1})
    assert ChainVector(spec, 0, {a: 2, b: 1}) != ChainVector(spec, 0, {a: 2})
    assert ChainVector(spec, 0, {a: 2}) != ChainVector(spec, 0, {b: 2})
    assert ChainVector(spec, 0, {a: 1}) != ChainVector(spec, 0, {a: Fraction(1, 2)})


def test_concat_requires_disjoint_labels():
    spec = cell_complex(2, 2)
    z = ChainVector(spec, 0, {((1,), (2,)): 1})
    with pytest.raises(ValueError):
        concat(z, z)


def test_concat_all_and_merge():
    a = ChainVector(cell_complex((1,), 2), 0, {((1,),): 1})
    b = ChainVector(cell_complex((2,), 2), 0, {((2,),): 2})
    c = ChainVector(cell_complex((3,), 2), 0, {((3,),): 1})
    z = concat_all([a, b, c], 2)
    assert z.coeffs == {((1,), (2,), (3,)): 2}
    merged = merge_specs(a.spec, b.spec)
    assert merged.labels == (1, 2)


def test_vector_arithmetic():
    spec = cell_complex(2, 2)
    z = ChainVector(spec, 0, {((1,), (2,)): Fraction(1, 2)})
    y = ChainVector(spec, 0, {((2,), (1,)): 1})
    s = z + y - y
    assert s == z and not s.is_zero()
    assert (z.scale(2) - z - z).is_zero()
    assert (-z).coeffs[((1,), (2,))] == Fraction(-1, 2)
    assert ChainVector.zero(spec, 1).is_zero()


def test_vectors_are_not_hashable():
    spec = cell_complex(2, 2)
    z = ChainVector(spec, 0, {((1,), (2,)): 1})
    with pytest.raises(TypeError):
        hash(z)


def test_validate_rejects_foreign_cells():
    spec = cell_complex(2, 2)
    with pytest.raises(ValueError):
        ChainVector(spec, 0, {((3,), (1,)): 1}, validate=True)
    with pytest.raises(ValueError):
        ChainVector(spec, 1, {((1,), (2,)): 1}, validate=True)


def test_to_column_is_sparse():
    spec = cell_complex(2, 2)
    z = ChainVector(spec, 0, {((1,), (2,)): 3})
    col = z.to_column()
    assert list(col.values()) == [3]
    cells = enumerate_cells(spec, 0)
    assert cells[list(col)[0]] == ((1,), (2,))


@pytest.mark.parametrize("spec", [cell_complex(4, 3),
                                  cell_complex((1, 2, 3, 4), 3, (1, 2, 1, 1)),
                                  permutohedron(5, 3)],
                         ids=lambda spec: spec.describe())
def test_boundary_matrix_columns_match_its_triplets(spec):
    for d in range(1, spec.top_degree() + 1):
        matrix = boundary_matrix(spec, d)
        rebuilt = [{} for _ in range(matrix.cols)]
        for r, c, v in matrix.triplets:
            rebuilt[c][r] = v
        assert matrix.columns() == rebuilt
        assert matrix.columns() is not matrix.columns()


def test_boundary_cell_matches_boundary():
    spec = cell_complex(3, 2)
    cell = ((2,), (3, 1))
    via_cell = dict(boundary_cell(spec, cell))
    via_chain = boundary(ChainVector(spec, 1, {cell: 1})).coeffs
    assert via_cell == via_chain


# ---------------------------------------------------------------------------
# the integer kernel against the rational loop

# both kinds, unit and weighted
ORACLE_SPECS = [
    cell_complex(4, 3), cell_complex((1, 2, 3, 4), 4, (2, 1, 3, 1)),
    permutohedron(5, 3), permutohedron((1, 2, 3, 4), 4, (3, 2, 1, 2)),
]
DIVISORS_5040 = tuple(d for d in range(1, 5041) if 5040 % d == 0)


def _coefficient(kind, rng):
    if kind == "int" or kind == "mixed" and rng.random() < 0.5:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    den = rng.choice((rng.choice(DIVISORS_5040), rng.randint(1, 5040)))
    return Fraction(rng.choice((-7, -3, -1, 1, 2, 5)), den)


def _oracle_chains(spec, rng):
    for degree in range(1, spec.top_degree() + 1):
        cells = enumerate_cells(spec, degree)
        for kind in ("int", "fraction", "mixed"):
            for terms in (1, 3, 12):
                picked = rng.sample(cells, min(terms, len(cells)))
                yield ChainVector(spec, degree, {c: _coefficient(kind, rng) for c in picked})


def _cancelling_cycles(spec, rng):
    """Boundaries of chains whose cells carry pairwise different
    denominators: their own boundaries cancel only across denominators."""
    for degree in range(2, spec.top_degree() + 1):
        cells = enumerate_cells(spec, degree)
        for terms in (2, 5):
            picked = rng.sample(cells, min(terms, len(cells)))
            dens = rng.sample(DIVISORS_5040[1:], len(picked))
            yield rational_boundary(ChainVector(
                spec, degree, {c: Fraction(rng.choice((-1, 1, 2)), d)
                               for c, d in zip(picked, dens)}))


def assert_matches_the_rational_loop(chain):
    got, want = boundary(chain), rational_boundary(chain)
    assert (got.spec, got.degree) == (want.spec, want.degree)
    assert got.coeffs.keys() == want.coeffs.keys()
    for facet, v in want.coeffs.items():
        assert got.coeffs[facet] == v
        assert type(got.coeffs[facet]) is type(v)
    assert is_cycle(chain) == want.is_zero()


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.describe())
def test_boundary_matches_the_rational_loop(spec):
    rng = random.Random(5040)
    for chain in _oracle_chains(spec, rng):
        assert_matches_the_rational_loop(chain)
    # integral Fractions take the den-1 path, where a Fraction stays one
    chain = ChainVector(spec, 1, {c: Fraction(k) for k, c in
                                  enumerate(enumerate_cells(spec, 1)[:4], start=1)})
    assert_matches_the_rational_loop(chain)
    assert_matches_the_rational_loop(chain + ChainVector(
        spec, 1, {enumerate_cells(spec, 1)[-1]: 5}))


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.describe())
def test_cycles_that_cancel_across_denominators(spec):
    rng = random.Random(7)
    for z in _cancelling_cycles(spec, rng):
        assert len({v.denominator for v in z.coeffs.values()}) > 1
        assert is_cycle(z) and boundary(z).is_zero()
        assert_matches_the_rational_loop(z)
        off = z + ChainVector.of_cell(spec, next(iter(z.coeffs)), Fraction(1, 5040))
        assert not is_cycle(off)
        assert_matches_the_rational_loop(off)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.describe())
def test_bounds_matches_the_rational_loop(spec):
    rng = random.Random(11)
    for w in _oracle_chains(spec, rng):
        z = rational_boundary(w)
        assert bounds(w, z)
        assert not bounds(w, z.scale(Fraction(1, 2))) or z.is_zero()
        cell = next(iter(w.coeffs))
        nudged = w + ChainVector.of_cell(spec, cell, Fraction(1, 5040))
        assert bounds(nudged, z) == (rational_boundary(nudged) == z)
        if w.degree >= 2:
            assert not bounds(w, ChainVector(spec, w.degree, z.coeffs))  # wrong degree


# ---------------------------------------------------------------------------
# the sign table against the per-split formula


def reference_boundary_cell(spec, cell):
    """Facets of `cell` with (-1)^{wlength(e1)} * wsgn(b -> e1 e2) per split
    and the Koszul sign (-1)^{wdim of the blocks to the left}, computed split
    by split, in (block index, split size, lex mask) order."""
    out = []
    prefix = 1
    for i, block in enumerate(cell):
        for r in range(1, len(block)):
            for mask in itertools.combinations(range(len(block)), r):
                e1 = tuple(block[p] for p in mask)
                e2 = tuple(block[p] for p in range(len(block)) if p not in mask)
                sign = prefix * wsgn(block, e1 + e2, spec) * (-1) ** wlength(e1, spec)
                out.append((cell[:i] + (e1, e2) + cell[i + 1:], sign))
        prefix *= (-1) ** (wlength(block, spec) - 1)
    return tuple(out)


@st.composite
def specs(draw, max_labels=6, widths=(3, 4, 5, None)):
    """Both kinds, labels up to 40, weights 1-3, widths 3, 4, 5 and None."""
    labels = tuple(sorted(draw(st.sets(st.integers(1, 40), min_size=1,
                                       max_size=max_labels))))
    weights = tuple(draw(st.integers(1, 3)) for _ in labels)
    width = draw(st.sampled_from(widths))
    kind = draw(st.sampled_from((cell_complex, permutohedron)))
    return kind(labels, width, weights)


@st.composite
def specs_and_cells(draw):
    spec = draw(specs())
    labels, width = spec.labels, spec.width
    order = draw(st.permutations(labels))
    blocks, block, load = [], [], 0
    for a in order:
        # cut where the next label would overflow the width, else maybe
        if block and (draw(st.booleans())
                      or width is not None and load + spec.weight(a) > width):
            blocks.append(block)
            block, load = [], 0
        block.append(a)
        load += spec.weight(a)
    blocks.append(block)
    if spec.kind == "perm":
        blocks = [sorted(b) for b in blocks]
    return spec, tuple(tuple(b) for b in blocks)


@settings(max_examples=400, deadline=None)
@given(specs_and_cells())
def test_boundary_cell_matches_the_per_split_formula(spec_cell):
    spec, cell = spec_cell
    ChainVector.of_cell(spec, cell)  # the drawn cell is admissible
    assert boundary_cell(spec, cell) == reference_boundary_cell(spec, cell)


@settings(max_examples=60, deadline=None)
@given(specs(max_labels=5))
def test_boundary_matrix_columns_match_boundary_cell(spec):
    for d in range(1, spec.top_degree() + 1):
        lower = cell_index(spec, d - 1)
        want = [{lower[f]: s for f, s in boundary_cell(spec, cell)}
                for cell in enumerate_cells(spec, d)]
        assert boundary_matrix(spec, d).columns() == want


COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))


@st.composite
def specs_and_chains(draw):
    """A chain of int and Fraction coefficients in a drawn degree k >= 1,
    plus, below the top degree, a drawn multiple of a column of d_{k+1},
    whose facets cancel in pairs."""
    spec = draw(specs(max_labels=5).filter(lambda s: s.top_degree() >= 1))
    k = draw(st.integers(1, spec.top_degree()))
    cells = enumerate_cells(spec, k)
    coeffs = {cells[j]: draw(COEFFS)
              for j in draw(st.lists(st.integers(0, len(cells) - 1), max_size=6))}
    if k < spec.top_degree():
        above = boundary_matrix(spec, k + 1).entries
        v = draw(COEFFS)
        for r, s in above[draw(st.integers(0, len(above) - 1))].items():
            coeffs[cells[r]] = coeffs.get(cells[r], 0) + v * s
    return ChainVector(spec, k, coeffs)


@settings(max_examples=150, deadline=None)
@given(specs_and_chains())
def test_boundary_of_a_chain_is_the_matrix_product(chain):
    # sum_j c_j * (column j of d_k), summed in the coefficients' own types
    columns = boundary_matrix(chain.spec, chain.degree).entries
    index = cell_index(chain.spec, chain.degree)
    want: dict = {}
    for cell, v in chain.coeffs.items():
        for r, s in columns[index[cell]].items():
            want[r] = want.get(r, 0) + v * s
    assert boundary(chain).to_column() == {r: v for r, v in want.items() if v}


def test_verify_boundary_squared_reads_the_matrices(monkeypatch):
    spec = cell_complex(4, 5, (1, 2, 1, 1))
    assert spec.top_degree() == 3 and verify_boundary_squared(spec).ok
    built = chains.boundary_matrix

    def one_flipped(s, degree):
        matrix = built(s, degree)
        if degree != 2:
            return matrix
        entries = list(matrix.entries)
        row, v = next(iter(entries[3].items()))
        entries[3] = {**entries[3], row: -v}
        return dataclasses.replace(matrix, entries=tuple(entries))

    monkeypatch.setattr(chains, "boundary_matrix", one_flipped)
    report = verify_boundary_squared(spec)
    assert not report.ok
    # column 3 of d_2 fails against d_1, and every column of d_3 that reaches
    # row 3 of d_2 fails against the flipped column
    assert (2, format_cell(enumerate_cells(spec, 2)[3])) in report.failures
    assert {k for k, _ in report.failures} == {2, 3}


# ---------------------------------------------------------------------------
# the split tables shared by parity class


def assert_matches_the_formula(spec, rng):
    """Chain-level boundaries against the rational loop, the facets of their
    cells and every boundary matrix column against the per-split formula."""
    for chain in _oracle_chains(spec, rng):
        assert_matches_the_rational_loop(chain)
        assert bounds(chain, rational_boundary(chain))
        for cell in chain.coeffs:
            assert boundary_cell(spec, cell) == reference_boundary_cell(spec, cell)
    for d in range(1, spec.top_degree() + 1):
        lower = cell_index(spec, d - 1)
        want = [{lower[f]: s for f, s in reference_boundary_cell(spec, cell)}
                for cell in enumerate_cells(spec, d)]
        assert boundary_matrix(spec, d).columns() == want


@pytest.mark.parametrize("width", (3, 4, None))
@pytest.mark.parametrize("kind", (cell_complex, permutohedron), ids=("cell", "perm"))
def test_parity_classes_keep_their_own_split_tables(kind, width):
    # label 2 of weight 1 and 3 shares the unit table, of weight 2 it has its
    # own; each spec reads the blocks that the one before it split
    for order in ((1, 2, 3), (3, 2, 1)):
        chains._split_table.cache_clear()
        for w in order:
            spec = kind(5, width, (1, w, 1, 1, 1))
            assert_matches_the_formula(spec, random.Random(w))
        assert chains._split_table.cache_info().currsize == 2


def test_the_unit_split_table_holds_blocks_not_cells():
    chains._split_table.cache_clear()
    homology_profile(permutohedron(6, 3))
    assert verify_boundary_squared(cell_complex(5, 3)).ok
    table = chains._split_table(frozenset())
    assert chains._split_table.cache_info().currsize == 1
    # every block of distinct labels 1..5 of length <= 3 was met, and nothing
    # wider or from another label set
    assert set(table) >= {b for s in (1, 2, 3) for b in itertools.permutations(range(1, 6), s)}
    assert all(len(set(b)) == len(b) <= 3 and set(b) <= set(range(1, 7)) for b in table)
    assert len(table) <= sum(perm(6, s) for s in (1, 2, 3))
    for block, (splits, _) in table.items():
        assert all(sorted(e1 + e2) == sorted(block) for (e1, e2), _ in splits)


@pytest.mark.parametrize("even", [frozenset(), frozenset({2})])
def test_equal_parts_of_two_blocks_are_one_object(even):
    table = chains._SplitTable(even)
    a, b = (table[block][0] for block in [(1, 2, 3, 4), (3, 1, 4, 2)])
    parts = lambda splits: [p for pair, _ in splits for p in pair]
    shared = 0
    for x, y in itertools.product(a, b):
        assert (x == y) == (x is y)
        assert (x[0] == y[0]) == (x[0] is y[0])
        shared += x[0] is y[0]
    for p, q in itertools.product(parts(a), parts(b)):
        assert (p == q) == (p is q)
    # (1, 2)|(3, 4) and (3, 4)|(1, 2) split both blocks
    assert shared == 2


# Complexes whose cell lists and boundary matrices are pinned by digest: both
# kinds, unit and weighted, widths 3, 4, 5 and unrestricted.
PINNED_COMPLEXES = [
    cell_complex(4, 3), cell_complex(4, None), cell_complex(5, 3),
    cell_complex((1, 2, 3, 4), 4, (2, 1, 3, 1)),
    cell_complex((1, 2, 3, 4), 5, (2, 1, 3, 1)),
    cell_complex((2, 3, 5, 7), None, (1, 2, 2, 3)),
    cell_complex((1, 2, 3, 4, 5), None, (3, 1, 2, 1, 2)),
    permutohedron(5, 3), permutohedron(4, None),
    permutohedron((1, 2, 3, 4, 5), 5, (2, 1, 1, 3, 2)),
    permutohedron((1, 2, 3, 4), 4, (3, 2, 1, 2)),
    permutohedron((1, 3, 4, 6), None, (2, 3, 1, 2)),
]


def test_matrices_match_the_pinned_digest():
    # the digest was taken before the boundary was built from sign tables; it
    # pins the sign, facet-order and cell-order conventions, so a change to
    # it is a change of convention
    h = hashlib.sha256()
    for spec in PINNED_COMPLEXES:
        h.update(spec.describe().encode())
        for d in range(spec.top_degree() + 1):
            h.update(repr(enumerate_cells(spec, d)).encode())
            if d:
                h.update(repr(boundary_matrix(spec, d).triplets).encode())
    assert h.hexdigest() == "f155e2100fa14dbf23295830eaae02b9e1ed853ba91d566c3019ffea1feca00b"

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripconf.linalg import (
    Echelon,
    echelon_of_rows,
)

from conftest import assert_identical, full_scan_annihilator, rank_mod_p

entries = st.integers(min_value=-4, max_value=4)
rows_st = st.lists(
    st.dictionaries(st.integers(min_value=0, max_value=5), entries, max_size=4)
    .map(lambda d: {c: v for c, v in d.items() if v != 0}),
    min_size=1, max_size=6)
# entries up to +-4 force non-unit pivots; denominators 2 and 3 force scaling
rationals = st.one_of(entries, st.builds(Fraction, entries, st.sampled_from([2, 3])))
rational_vec_st = (st.dictionaries(st.integers(min_value=0, max_value=6), rationals,
                                   max_size=4)
                   .map(lambda d: {c: v for c, v in d.items() if v != 0}))
rational_rows_st = st.lists(rational_vec_st, min_size=1, max_size=7)


def combine(rows, coeffs):
    out = {}
    for c, row in zip(coeffs, rows):
        for col, v in row.items():
            t = out.get(col, 0) + c * v
            if t:
                out[col] = t
            else:
                out.pop(col, None)
    return out


def combine_tagged(rows, coeffs):
    return combine(rows, [coeffs.get(i, 0) for i in range(len(rows))])


def reference_reduce(basis, vec):
    """vec minus multiples of the basis rows, until no lead of theirs is left.

    `basis` maps a lead column to a Fraction row whose least column is that
    lead, with entry 1 there; plain Gauss elimination, the reference that
    Echelon is tested against.
    """
    v = {c: Fraction(x) for c, x in vec.items() if x}
    for lead in sorted(basis):
        f = v.get(lead)
        if f:
            for c, x in basis[lead].items():
                t = v.get(c, 0) - f * x
                if t:
                    v[c] = t
                else:
                    v.pop(c, None)
    return v


def reference_basis(rows):
    basis = {}
    for row in rows:
        v = reference_reduce(basis, row)
        if v:
            lead = min(v)
            basis[lead] = {c: x / v[lead] for c, x in v.items()}
    return basis


def test_rank_frozen():
    assert echelon_of_rows([]).rank == 0
    assert echelon_of_rows([{0: 1}, {1: 1}, {2: 1}]).rank == 3
    assert echelon_of_rows([{0: 1, 1: 2}, {1: 1}, {0: 1, 1: 3}]).rank == 2
    assert echelon_of_rows([{0: 2, 1: 4}, {0: 3, 1: 6}]).rank == 1
    assert echelon_of_rows([{}, {}]).rank == 0


def test_echelon_shape_invariants():
    ech = echelon_of_rows([{0: 2, 1: 4}, {0: 3, 1: 5}, {1: 7, 2: 1}])
    assert ech.rank == 3
    # columns by the count of rows touching them: 2 once, 0 twice, 1 thrice;
    # rows absorbed by least column, the last one leading at position 0
    assert ech.order == [2, 0, 1]
    assert ech.pivots_of == [1, 2, 0]
    assert [ech.column(p) for p in ech.pivots_of] == [0, 1, 2]
    for i, row in enumerate(ech.rows):
        piv = ech.pivots_of[i]
        assert min(row) == piv
        assert row[piv] > 0
        assert ech.pivot_row[piv] == i


def test_absorb_reports_rank_growth():
    ech = Echelon()
    assert ech.absorb({0: 1, 1: 1})
    assert not ech.absorb({0: 2, 1: 2})
    assert ech.absorb({1: 5})
    assert ech.rank == 2


def test_solve_exact_simple():
    rows = [{0: 1, 1: 1}, {1: 1}]
    sol = echelon_of_rows(rows, track=True).coordinates({0: 2, 1: 3})
    assert sol == {0: 2, 1: 1}
    assert all(type(v) is int for v in sol.values())
    assert echelon_of_rows([{0: 2}], track=True).coordinates({0: 1}) == {0: Fraction(1, 2)}
    assert echelon_of_rows([{0: 1}], track=True).coordinates({1: 1}) is None


def test_solve_is_deterministic():
    rows = [{0: 1}, {0: 1, 1: 1}, {1: 1}]
    target = {0: 1, 1: 1}
    first, second = (echelon_of_rows(rows, track=True).coordinates(target) for _ in range(2))
    assert first == second


@settings(max_examples=120, deadline=None)
@given(rows_st, st.data())
def test_solve_roundtrip(rows, data):
    coeffs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    target = combine(rows, coeffs)
    sol = echelon_of_rows(rows, track=True).coordinates(target)
    assert sol is not None
    dense = [Fraction(0)] * len(rows)
    for i, c in sol.items():
        dense[i] = c
    assert combine(rows, dense) == {c: v for c, v in target.items()}


@settings(max_examples=120, deadline=None)
@given(rows_st, st.dictionaries(st.integers(min_value=0, max_value=6), entries, max_size=4))
def test_residue_and_annihilator_certify_membership(rows, vec):
    vec = {c: v for c, v in vec.items() if v != 0}
    ech = echelon_of_rows(rows, track=True)
    res = ech.residue(vec)
    coords = ech.coordinates(vec)
    y = ech.annihilator(vec)
    if not res:
        # inside the span: coordinates reproduce the vector, no functional
        assert y is None
        assert coords is not None
        dense = [Fraction(0)] * len(rows)
        for i, c in coords.items():
            dense[i] = c
        assert combine(rows, dense) == vec
    else:
        assert coords is None
        assert y is not None
        for row in ech.rows:
            assert sum(y.get(c, 0) * v for c, v in ech.to_columns(row).items()) == 0
        assert sum(y.get(c, 0) * v for c, v in vec.items()) != 0


@settings(max_examples=200, deadline=None)
@given(rational_rows_st, rational_vec_st,
       st.dictionaries(st.integers(min_value=7, max_value=9), rationals, max_size=2))
def test_ordered_echelon_agrees_with_a_plain_one(rows, vec, outside):
    # columns 7-9 are touched by no row
    vec = {**vec, **{c: v for c, v in outside.items() if v}}
    ordered = echelon_of_rows(rows, track=True)
    plain = Echelon(track=True)
    for i, row in enumerate(rows):
        plain.absorb(row, tag=i)
    assert ordered.rank == plain.rank
    res = ordered.residue(vec)
    assert (not res) == (not plain.residue(vec))
    touched = set().union(*rows)
    assert {ordered.column(p) for p in ordered.pivots_of} <= touched
    for c in set(vec) - touched:
        assert res[c] == vec[c]
    coords, y = ordered.solve(vec)
    assert_identical(coords, ordered.coordinates(vec))
    assert_identical(y, ordered.annihilator(vec))
    if not res:
        assert y is None
        assert combine_tagged(rows, coords) == vec
    else:
        assert coords is None
        for row in rows:
            assert sum(y.get(c, 0) * v for c, v in row.items()) == 0
        assert sum(y.get(c, 0) * v for c, v in vec.items()) != 0
        assert ordered.certifies(y, vec)


@settings(max_examples=80, deadline=None)
@given(rows_st)
def test_rank_invariant_under_shuffle(rows):
    assert echelon_of_rows(rows).rank == echelon_of_rows(list(reversed(rows))).rank


def test_coordinates_need_tracking():
    with pytest.raises(ValueError):
        echelon_of_rows([{0: 1}]).coordinates({0: 1})


@settings(max_examples=200, deadline=None)
@given(rational_rows_st, rational_vec_st)
def test_echelon_matches_reference(rows, vec):
    basis = reference_basis(rows)
    inside = not reference_reduce(basis, vec)
    plain = echelon_of_rows(rows)
    ech = echelon_of_rows(rows, track=True)
    assert plain.rank == ech.rank == len(basis)
    res = ech.residue(vec)
    assert (not res) == inside
    assert not set(res) & set(map(ech.column, ech.pivot_row))
    # vec - residue lies in the span
    assert not reference_reduce(basis, {c: Fraction(vec.get(c, 0)) - res.get(c, 0)
                                        for c in set(vec) | set(res)})
    coords = ech.coordinates(vec)
    y = ech.annihilator(vec)
    if inside:
        assert y is None
        assert combine_tagged(rows, coords) == vec
    else:
        assert coords is None
        for row in rows:
            assert sum(y.get(c, 0) * v for c, v in row.items()) == 0
        assert sum(y.get(c, 0) * v for c, v in vec.items()) != 0


@settings(max_examples=200, deadline=None)
@given(rational_rows_st)
def test_tracked_and_plain_echelons_agree(rows):
    plain = echelon_of_rows(rows)
    ech = echelon_of_rows(rows, track=True)
    assert ech.rows == plain.rows
    assert ech.pivots_of == plain.pivots_of
    for row, combo, den in zip(ech.rows, ech.combos, ech.dens):
        assert den > 0
        assert combine_tagged(rows, {t: Fraction(v, den) for t, v in combo.items()}) == \
            ech.to_columns(row)


@settings(max_examples=200, deadline=None)
@given(rows_st, st.dictionaries(st.integers(min_value=0, max_value=6), entries, max_size=4))
def test_annihilator_matches_the_full_scan(rows, vec):
    ech = echelon_of_rows(rows)
    assert_identical(ech.annihilator(vec), full_scan_annihilator(ech, vec))


@settings(max_examples=200, deadline=None)
@given(rational_rows_st, rational_vec_st)
def test_annihilator_matches_the_full_scan_on_rationals(rows, vec):
    ech = echelon_of_rows(rows, track=True)
    assert_identical(ech.annihilator(vec), full_scan_annihilator(ech, vec))


def transpose(rows):
    out = {}
    for i, row in enumerate(rows):
        for c in row:
            out.setdefault(c, []).append(i)
    return out


def check_index_in_sync(before, after, vecs):
    """Answer, absorb `after`, answer again: the answers match the full scan
    and the column index is the transpose of the rows at both points."""
    ech = Echelon()
    for row in before:
        ech.absorb(row)
    assert ech.rows_at is None
    for vec in vecs:
        assert_identical(ech.annihilator(vec), full_scan_annihilator(ech, vec))
    assert ech.rows_at == transpose(ech.rows)
    for row in after:
        ech.absorb(row)
    assert ech.rows_at == transpose(ech.rows)
    for vec in vecs:
        assert_identical(ech.annihilator(vec), full_scan_annihilator(ech, vec))


def test_column_index_follows_later_absorptions():
    # the later rows take pivots 0 and 1, below the earlier pivots 3 and 4,
    # and their entries at 3, 4 and 5 change every certificate
    before = [{3: 2, 5: 3}, {4: 2, 5: 1, 6: 5}]
    after = [{0: 1, 3: 1, 6: 2}, {1: 2, 4: 3, 5: -1}, {3: 4, 4: 1}]
    vecs = [{5: 1}, {6: 1}, {2: 1, 6: 3}, {0: 1, 1: 1, 5: 2}]
    check_index_in_sync(before, after, vecs)
    ech = Echelon()
    for row in before + after:
        ech.absorb(row)
    assert min(ech.pivots_of[len(before):]) < min(ech.pivots_of[:len(before)])


@settings(max_examples=150, deadline=None)
@given(rows_st, rows_st, st.lists(st.dictionaries(st.integers(min_value=0, max_value=6),
                                                  entries, min_size=1, max_size=4),
                                  min_size=1, max_size=3))
def test_column_index_stays_in_sync(before, after, vecs):
    # no row meets column 7, so the last query always builds the index
    check_index_in_sync(before, after, vecs + [{7: 1, 0: 1}])


@settings(max_examples=150, deadline=None)
@given(rows_st)
def test_rank_mod_p_bounds_the_rational_rank(rows):
    assert rank_mod_p(rows) <= echelon_of_rows(rows).rank


def test_rank_mod_p_drops_where_p_divides_the_minors():
    rows = [{0: 1, 1: 1}, {0: 1, 1: -1}]  # the one 2x2 minor is -2
    assert echelon_of_rows(rows).rank == rank_mod_p(rows) == 2
    assert rank_mod_p(rows, 2) == 1


@settings(max_examples=200, deadline=None)
@given(rows_st, rows_st, st.dictionaries(st.integers(min_value=0, max_value=6), entries,
                                         max_size=4))
def test_extension_reduces_modulo_the_image(rows, vecs, target):
    image = echelon_of_rows(rows)
    before = (list(image.rows), list(image.pivots_of), dict(image.pivot_row))
    ext = image.extended(vecs)
    assert (image.rows, image.pivots_of, image.pivot_row) == before
    assert ext.position is image.position and ext.order is image.order
    assert ext.rank - image.rank == rank_mod_p(rows + vecs) - image.rank
    # target lies in span(rows + vecs) exactly when the extension gives
    # coordinates; they name only the vecs, and leave an image element
    target = {c: v for c, v in target.items() if v}
    coords = ext.coordinates(target)
    assert (coords is None) == (rank_mod_p(rows + vecs + [target]) > rank_mod_p(rows + vecs))
    if coords is not None:
        assert set(coords) <= set(range(len(vecs)))
        left = combine(vecs, [-coords.get(i, 0) for i in range(len(vecs))])
        assert not image.residue(combine([target, left], [1, 1]))


@settings(max_examples=150, deadline=None)
@given(rows_st, rows_st, st.lists(st.dictionaries(st.integers(min_value=0, max_value=7),
                                                  entries, min_size=1, max_size=4),
                                  min_size=1, max_size=3))
def test_extension_leaves_the_column_index_of_the_image(rows, vecs, queries):
    image = echelon_of_rows(rows)
    for vec in queries:
        image.annihilator(vec)  # builds the index when vec is off the span
    index = None if image.rows_at is None else {p: list(r) for p, r in image.rows_at.items()}
    ext = image.extended(vecs)
    assert ext.rows_at is None and image.rows_at == index
    for vec in queries:
        assert_identical(image.annihilator(vec), full_scan_annihilator(image, vec))


def test_extension_starts_from_the_image_rows():
    image = echelon_of_rows([{0: 1, 1: -1}, {1: 1, 2: -1}])
    # the empty vec and the image element {0: 2, 2: -2} add no rank, and
    # {0: 2, 3: 2} is twice {0: 1, 3: 1}
    ext = image.extended([{}, {0: 2, 2: -2}, {0: 1, 3: 1}, {0: 2, 3: 2}])
    assert ext.track and ext.rank == image.rank + 1
    assert ext.combos[:image.rank] == [{}] * image.rank
    assert ext.dens[:image.rank] == [1] * image.rank
    assert all(ext.rows[i] is image.rows[i] for i in range(image.rank))
    assert ext.coordinates({0: 1, 3: 1}) == {2: 1}
    assert ext.coordinates({2: 3, 3: 3}) == {2: 3}  # {0: 3, 2: -3} bounds
    assert ext.coordinates({0: 1, 1: -1}) == {}
    assert ext.coordinates({0: 1}) is None
    assert image.rank == 2 and not image.track

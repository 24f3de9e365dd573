import itertools
import os
import pickle
import subprocess
import sys
from math import comb as binom, factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stripconf.cells import (
    ComplexSpec,
    _min_blocks,
    canonical_key,
    cell_complex,
    enumerate_cells,
    format_cell,
    parse_cell,
    parse_weighted_set,
    permutohedron,
    top_dim,
    validate_cell,
    wheel_decomposition,
    wlength,
    wsgn,
    wsgn_pairs,
)
from stripconf.homology import homology_profile

from conftest import run_optimized, s_of_sigma


def test_describe_round_trip():
    spec = cell_complex(3, 2)
    assert spec.describe() == "cell(1:1 2:1 3:1; w=2)"
    labels, weights = parse_weighted_set("1:1 2:2")
    wspec = cell_complex(labels, 2, weights)
    assert wspec.describe() == "cell(1:1 2:2; w=2)"
    assert wspec.weight(2) == 2 and wspec.total_weight() == 3


def test_parse_weighted_set_defaults_and_duplicates():
    labels, weights = parse_weighted_set("3 1:2")
    assert labels == (1, 3) and weights == (2, 1)
    with pytest.raises(ValueError):
        parse_weighted_set("1:1 1:2")


def test_a_negative_label_count_is_refused():
    for make in (cell_complex, permutohedron):
        with pytest.raises(ValueError, match="label count -2 is negative"):
            make(-2, 2)


def test_specs_built_separately_share_their_hash_and_caches():
    a = cell_complex(3, 2, (1, 2, 1))
    b = ComplexSpec("cell", (1, 2, 3), (1, 2, 1), 2)
    assert a == b and a is not b
    # the generated dataclass hash is that of the compared fields
    assert hash(a) == hash(b) == hash(("cell", (1, 2, 3), (1, 2, 1), 2))
    assert enumerate_cells(a, 1) is enumerate_cells(b, 1)
    assert len({a: 0, b: 1}) == 1
    assert a != cell_complex(3, 2) and a != permutohedron(3, 2, (1, 2, 1))
    # the derived label -> weight dict is no part of eq, hash or repr
    object.__setattr__(b, "weight_of", {})
    assert a == b and hash(a) == hash(b)
    assert "weight_of" not in repr(a) and "_hash" not in repr(a)
    assert repr(a) == "ComplexSpec(kind='cell', labels=(1, 2, 3), weights=(1, 2, 1), width=2)"


def test_an_unpickled_spec_hashes_like_a_fresh_one_under_another_seed():
    # a str hashes differently in another process, so the stored hash
    # cannot travel with the pickle
    spec = permutohedron(3, None, (2, 1, 1))
    script = ("import pickle, sys; from stripconf.cells import permutohedron; "
              "spec = pickle.loads(bytes.fromhex(sys.argv[1])); "
              "fresh = permutohedron(3, None, (2, 1, 1)); "
              "print(spec == fresh, hash(spec) == hash(fresh), spec in {fresh: 0})")
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", script, pickle.dumps(spec).hex()],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["True", "True", "True"]


def test_spec_validation():
    with pytest.raises(ValueError):
        cell_complex((0, 1), 2)
    with pytest.raises(ValueError):
        ComplexSpec("cell", (2, 1), (1, 1), 2)
    with pytest.raises(ValueError):
        ComplexSpec("weird", (1,), (1,), 2)
    with pytest.raises(ValueError, match="distinct"):
        ComplexSpec("cell", (1, 1), (1, 1), 2)
    with pytest.raises(ValueError, match="align"):
        ComplexSpec("cell", (1, 2), (1,), 2)
    with pytest.raises(ValueError, match="weight 0 out of range"):
        ComplexSpec("cell", (1, 2), (1, 0), 2)
    with pytest.raises(ValueError, match="width 0 out of range"):
        ComplexSpec("cell", (1, 2), (1, 1), 0)


def test_unrestricted_ordered_counts():
    # blocks are nonempty runs of a permutation: n! * C(n-1, j-1) cells on j blocks
    spec = cell_complex(4, None)
    for j in range(1, 5):
        want = factorial(4) * binom(3, j - 1)
        assert len(enumerate_cells(spec, 4 - j)) == want


def test_unrestricted_permutohedron_counts():
    # ordered set partitions into j blocks: j! * S(n, j)
    stirling = {(3, 1): 1, (3, 2): 3, (3, 3): 1}
    spec = permutohedron(3, 3)
    for j in range(1, 4):
        assert len(enumerate_cells(spec, 3 - j)) == factorial(j) * stirling[(3, j)]


def ordered_set_partitions(labels):
    """Every sequence of disjoint nonempty blocks covering `labels`, each
    block ascending."""
    if not labels:
        yield ()
        return
    for r in range(1, len(labels) + 1):
        for first in itertools.combinations(labels, r):
            rest = tuple(a for a in labels if a not in first)
            for tail in ordered_set_partitions(rest):
                yield (first,) + tail


def reference_cells(spec):
    """Cells by dimension, by brute force: every ordered set partition, each
    block in every order (ascending only in a permutohedron), kept when no
    block outweighs the width, sorted by canonical_key."""
    found = {}
    for blocks in ordered_set_partitions(spec.labels):
        if spec.width is not None and any(
                sum(spec.weight(a) for a in b) > spec.width for b in blocks):
            continue
        orders = [itertools.permutations(b) if spec.kind == "cell" else (b,) for b in blocks]
        found.setdefault(spec.n - len(blocks), []).extend(itertools.product(*orders))
    return {d: tuple(sorted(cells, key=canonical_key)) for d, cells in found.items()}


@st.composite
def small_specs(draw):
    labels = sorted(draw(st.sets(st.integers(1, 30), max_size=6)))
    weights = [draw(st.integers(1, 3)) for _ in labels]
    width = draw(st.one_of(st.none(), st.integers(1, max(len(labels), 1))))
    kind = draw(st.sampled_from((cell_complex, permutohedron)))
    return kind(labels, width, weights)


@settings(max_examples=100, deadline=None)
@given(small_specs())
def test_enumeration_matches_brute_force(spec):
    want = reference_cells(spec)
    for d in range(-1, spec.n + 1):
        assert enumerate_cells(spec, d) == want.get(d, ())


def test_width_prunes_heavy_blocks():
    spec = cell_complex(3, 2)
    assert [len(enumerate_cells(spec, d)) for d in range(3)] == [6, 12, 0]
    assert spec.top_degree() == 1
    assert homology_profile(spec).cells == (6, 12)
    for cell in enumerate_cells(spec, 1):
        assert all(len(b) <= 2 for b in cell)


def test_weighted_width_counts_weight_not_length():
    labels, weights = parse_weighted_set("1:1 2:2")
    spec = cell_complex(labels, 2, weights)
    # the block (1 2) weighs 3 > 2, so only the two vertex cells survive
    assert [len(enumerate_cells(spec, d)) for d in range(2)] == [2, 0]
    with pytest.raises(ValueError):
        validate_cell(((1, 2),), spec)


def test_top_degree_refuses_oversized_weights():
    labels, weights = parse_weighted_set("1:3 2:1")
    assert cell_complex(labels, 2, weights).top_degree() == -1


def brute_min_blocks(weights, width):
    """Fewest bins of capacity `width` holding every weight, by trying each
    weight in every open bin and in a new one."""
    best = len(weights)

    def place(i, bins):
        nonlocal best
        if i == len(weights):
            best = min(best, len(bins))
            return
        for j, load in enumerate(bins):
            if load + weights[i] <= width:
                place(i + 1, bins[:j] + [load + weights[i]] + bins[j + 1:])
        place(i + 1, bins + [weights[i]])

    place(0, [])
    return best


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=8), st.integers(0, 12))
# the first packing found here takes one block more than the optimum
@example([3, 3, 3, 3, 1, 1, 1, 1], 5)
@example([3, 2, 2, 2, 2, 2, 1, 1], 2)
def test_min_blocks_matches_brute_force(weights, extra):
    width = max(weights) + extra
    want = brute_min_blocks(weights, width)
    assert _min_blocks(tuple(sorted(weights, reverse=True)), width) == want
    assert cell_complex(len(weights), width, weights).top_degree() == len(weights) - want


def test_top_degree_is_quick_for_many_labels():
    # a packing that meets ceil(total / width) ends the search at once
    assert cell_complex(90, 7).top_degree() == 90 - 13
    assert permutohedron(40, 3).top_degree() == 40 - 14
    assert cell_complex(30, 4, [1, 2, 3] * 10).top_degree() == 30 - 15


def test_dims_and_signs():
    spec = cell_complex(3, 2)
    assert top_dim(((3, 1), (2,))) == 1
    # weighted dimension: the sum over blocks of wlength - 1
    assert sum(wlength(b, spec) - 1 for b in ((3, 1), (2,))) == 1
    assert wsgn((1, 2, 3), (2, 1, 3), cell_complex(3, 3)) == -1
    # even weights do not count toward inversions
    labels, weights = parse_weighted_set("1:1 2:2")
    assert wsgn((1, 2), (2, 1), cell_complex(labels, 3, weights)) == 1
    assert wsgn_pairs((1, 2, 3), (3, 2, 1), lambda a: 1) == -1
    assert wsgn_pairs((1, 2, 3), (3, 2, 1), lambda a: 2) == 1


def test_wsgn_rejects_mismatched_arrangements():
    unit = lambda a: 1
    for source, target in [((1, 2), (1, 3)), ((1, 2), (2, 1, 3)), ((1, 1), (1, 2)),
                           ((1, 2), (1, 1)), ((1, 2, 3), (3, 2))]:
        with pytest.raises(ValueError):
            wsgn_pairs(source, target, unit)
    assert wsgn_pairs((), (), unit) == 1


def test_wsgn_is_multiplicative(rng):
    spec = cell_complex(4, None, (1, 2, 1, 3))
    labels = spec.labels
    for _ in range(40):
        p = tuple(rng.sample(labels, 4))
        q = tuple(rng.sample(labels, 4))
        lhs = wsgn(labels, p, spec) * wsgn(p, q, spec)
        assert lhs == wsgn(labels, q, spec)


def test_cell_text_round_trip():
    cell = ((3, 1), (2,))
    assert parse_cell(format_cell(cell)) == cell
    assert format_cell(cell) == "3 1|2"


def test_wheel_decomposition_segments():
    dec = wheel_decomposition((3, 1, 2, 5, 4))
    assert dec.wheels == ((3, 1, 2), (5, 4))
    assert dec.superlabels == (3, 5)
    assert dec.weights == (3, 2)
    assert dec.shift() == 3
    # concatenating the wheels recovers the permutation
    assert tuple(a for w in dec.wheels for a in w) == (3, 1, 2, 5, 4)


def test_wheel_decomposition_weighted():
    dec = wheel_decomposition((2, 1), lambda a: {1: 2, 2: 1}[a])
    assert dec.weights == (3,)


def test_wheel_decomposition_rejects_entries_out_of_order_under_python_O():
    # entries whose comparisons contradict each other give axles that do
    # not increase; the check must survive the stripping of asserts
    printed = run_optimized("""
        import sys
        from stripconf.cells import wheel_decomposition

        class Loose:
            def __lt__(self, other):
                return True
            __gt__ = __lt__

        try:
            wheel_decomposition((Loose(), Loose()))
        except ValueError as e:
            print("ValueError", "totally ordered" in str(e), sys.flags.optimize)
    """)
    assert printed == ["ValueError", "True", "1"]


def test_s_of_sigma_orbit():
    orbit = s_of_sigma((2, 1, 3))
    assert orbit == ((2, 1, 3), (3, 2, 1))
    wheels = wheel_decomposition((4, 1, 3, 2, 5)).wheels
    orbit = s_of_sigma((4, 1, 3, 2, 5))
    assert len(orbit) == factorial(len(wheels))
    for tau in orbit:
        # tau splits into sigma's wheels laid end to end in some order
        perms = {tuple(a for w in order for a in w)
                 for order in itertools.permutations(wheels)}
        assert tau in perms

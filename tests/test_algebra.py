from fractions import Fraction

import pytest

from stripconf.algebra import (
    WordCombination,
    act,
    barrier_decompose,
    count_barriers,
    generation_check,
    higher_stability_params,
    properize,
    quotient_reduce,
    r1_instance,
    r2_instance,
    r3_instance,
    r4_instance,
    r5_closed_form,
    r5_instance,
    reduce,
    relation_instance,
    stability_params,
    _first_violation,
)
from stripconf.cells import cell_complex
from stripconf.chains import ChainVector
from stripconf.cycles import AvgFilter, Node, Leaf, Wheel, comb, parse_word, word_cycle
from stripconf.homology import is_boundary

from conftest import run_optimized


# ---------------------------------------------------------------------------
# R1 and the relabeling action


def test_properize_frozen():
    assert properize(Wheel((3, 1, 2))) == {(3, 1, 2): 1}
    assert properize(comb((1, 2, 3))) == {(3, 1, 2): -1, (3, 2, 1): -1}
    assert properize(comb((1, 2))) == {(2, 1): 1}


def test_properize_balanced_tree():
    tree = Node(Node(Leaf(1), Leaf(2)), Node(Leaf(3), Leaf(4)))
    combo = properize(tree)
    assert all(labels[0] == 4 for labels in combo)
    inst = r1_instance(tree, 4)
    assert inst.witness is None and inst.verified()


def test_r1_instances_are_exact(rng):
    for _ in range(6):
        n = rng.randint(2, 4)
        labels = tuple(rng.sample(range(1, 8), n))
        inst = r1_instance(comb(labels), n)
        assert inst.verified()


def relabel_chain(chain, mapping):
    labels = tuple(sorted(mapping.get(a, a) for a in chain.spec.labels))
    spec = cell_complex(labels, chain.spec.width)
    coeffs = {}
    for cell, v in chain.coeffs.items():
        sym = tuple(tuple(mapping.get(a, a) for a in b) for b in cell)
        coeffs[sym] = v
    return ChainVector(spec, chain.degree, coeffs)


def test_act_frozen():
    out = act({1: 2, 2: 1}, parse_word("W(2,1)"))
    assert out == WordCombination.of(parse_word("W(2,1)"))
    out = act({1: 2, 2: 3, 3: 1}, parse_word("W(3,1,2)"))
    assert out == WordCombination(
        {parse_word("W(3,1,2)"): Fraction(-1), parse_word("W(3,2,1)"): Fraction(-1)})


def test_act_matches_the_relabeled_chain():
    cases = [("W(2,1)|W(3)", {1: 3, 3: 1}, 2),
             ("AF(W(1),W(2),W(3))", {1: 2, 2: 3, 3: 1}, 2),
             ("W(3,1)|W(2)", {1: 2, 2: 1}, 3),
             ("AF(W(1),W(2),W(3))", {2: 3, 3: 2}, 3)]
    for text, mapping, width in cases:
        word = parse_word(text)
        moved = act(mapping, word)
        assert moved.cycle(width) == relabel_chain(word_cycle(word, width), mapping)


def test_act_keeps_factor_shapes():
    out = act({1: 4, 4: 1}, parse_word("W(4,2)|AF(W(1),W(3),W(5))"))
    for word in out.terms:
        assert len(word.factors) == 2
        assert isinstance(word.factors[0], Wheel)
        assert isinstance(word.factors[1], AvgFilter)
        ranks = [w.rank_key() for w in word.factors[1].wheels]
        assert ranks == sorted(ranks)


# ---------------------------------------------------------------------------
# relation families


def test_r2_witnessed(rng):
    for _ in range(6):
        pool = rng.sample(range(1, 9), 4)
        k = rng.randint(1, 3)
        w1 = Wheel(tuple(sorted(pool[:k], reverse=True)))
        w2 = Wheel(tuple(sorted(pool[k:], reverse=True)))
        inst = r2_instance(w1, w2, 4)
        assert inst.verified()


def test_r2_needs_room():
    with pytest.raises(ValueError):
        r2_instance(Wheel((2, 1)), Wheel((3,)), 2)


def test_r3_exact():
    wheels = (Wheel((1,)), Wheel((2,)), Wheel((3,)))
    for order in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        inst = r3_instance(wheels, order, 2)
        assert inst.witness is None and inst.verified()
    wheels = (Wheel((2, 1)), Wheel((3,)), Wheel((4,)))
    inst = r3_instance(wheels, (2, 0, 1), 3)
    assert inst.verified()


def test_r4_exact():
    inst = r4_instance((comb((1, 2)), comb((3,)), comb((4,))), 0, 3)
    assert inst.witness is None and inst.verified()
    inst = r4_instance((comb((3,)), comb((1, 2, 4)), comb((5,))), 1, 4)
    assert inst.verified()


def test_r5_closed_form_frozen():
    assert r5_closed_form((1, 1, 1)) == ((1, -1, 1), (-1, 1, -1))
    assert r5_closed_form((2, 1, 1)) == ((1, 1, -1), (-1, -1, 1))
    left, right = r5_closed_form((1, 1, 1, 1))
    assert left == (1, -1, 1, -1)
    assert right == (-1, 1, -1, 1)


def test_r5_three_wheels_is_exact():
    inst = r5_instance((Wheel((1,)), Wheel((2,)), Wheel((3,))), 2)
    assert inst.witness is None
    assert inst.difference.is_zero()
    assert inst.verified()


def test_r5_four_wheels_witnessed():
    inst = r5_instance(
        (Wheel((1,)), Wheel((2,)), Wheel((3,)), Wheel((4,))), 2)
    assert inst.witness is not None
    assert inst.verified()


def test_r5_guards():
    with pytest.raises(ValueError):
        r5_instance((Wheel((1,)), Wheel((2,))), 2)
    with pytest.raises(ValueError):
        r5_instance((Wheel((3, 2, 1)), Wheel((4,)), Wheel((5,))), 2)


def test_relation_dispatcher():
    inst = relation_instance("r2", 3, w1=Wheel((2, 1)), w2=Wheel((3,)))
    assert inst.name == "R2" and inst.verified()
    with pytest.raises(ValueError):
        relation_instance("r9", 2)


# ---------------------------------------------------------------------------
# reduction to normal form


def test_reduce_swaps_inverted_pair():
    out = reduce("W(3)|W(2,1)", 3)
    assert out == WordCombination.of(parse_word("W(2,1)|W(3)"))


def test_reduce_keeps_oversize_inversion():
    # the pair does not fit in one block at width 2, so it is already normal
    out = reduce("W(3)|W(2,1)", 2)
    assert out == WordCombination.of(parse_word("W(3)|W(2,1)"))


def test_reduce_kills_trivial_filters():
    assert reduce("AF(W(1),W(2),W(3))", 3).is_zero()


def test_reduce_pushes_wheel_through_filter():
    out = reduce("W(1)|AF(W(2),W(3),W(4))", 2)
    assert len(out.terms) == 7
    assert all(abs(c) == 1 for c in out.terms.values())
    for word in out.terms:
        assert _first_violation(word, 2) is None


def test_reduce_is_idempotent():
    out = reduce("W(1)|AF(W(2),W(3),W(4))", 2)
    assert reduce(out, 2) == out


def test_reduce_preserves_the_homology_class():
    x = parse_word("W(1)|AF(W(2),W(3),W(4))")
    out = reduce(x, 2)
    diff = word_cycle(x, 2) - out.cycle(2)
    assert is_boundary(diff)


def test_reduce_rejects_bad_words():
    with pytest.raises(ValueError, match="ordered products"):
        reduce("AF(W(1),W(2))", 2)
    with pytest.raises(ValueError, match="inadmissible"):
        reduce("AF(W(2,1),W(3,4),W(5))", 2)
    with pytest.raises(ValueError, match="improper"):
        reduce("W(1,2)", 2)
    with pytest.raises(ValueError, match="increasing rank"):
        reduce("AF(W(2),W(1),W(3))", 2)
    with pytest.raises(ValueError, match="does not fit"):
        reduce("W(3,2,1)", 2)


# ---------------------------------------------------------------------------
# stability parameters


def test_stability_params_frozen():
    p = stability_params(5, 4)
    assert (p.b, p.fi_width, p.generation_degree) == (1, 2, 10)
    assert p.describe() == "b=1, FI-width 2, generation degree 10"
    p = stability_params(2, 2)
    assert (p.b, p.fi_width, p.generation_degree) == (2, 3, 6)


def test_higher_stability_params_frozen():
    p = higher_stability_params(2, 3, 4)
    assert (p.b, p.fi_width, p.generation_degree) == (3, 4, 11)
    assert p.describe() == "b=3, FIW(2)-width 4, generation degree 11"


def test_stability_guards():
    with pytest.raises(ValueError):
        stability_params(1, 1)
    with pytest.raises(ValueError):
        higher_stability_params(3, 1, 4)


def test_generation_check():
    for width in (2, 3):
        bound, ok = generation_check(1, width)
        assert ok
        assert bound == (3 if width == 2 else 2)


# ---------------------------------------------------------------------------
# quotients and barriers


def test_quotient_reduce():
    assert quotient_reduce("W(3)|W(2,1)", 1, 3).is_zero()
    out = quotient_reduce("W(3)|W(2,1)", 0, 3)
    assert out == WordCombination.of(parse_word("W(2,1)|W(3)"))


def test_count_barriers():
    word = parse_word("W(5,4)|AF(W(1),W(2),W(3))")
    assert count_barriers(word, 1, 2) == 2
    assert count_barriers(parse_word("W(1)|W(2)"), 1, 2) == 0
    assert count_barriers(parse_word("W(2,1)"), 1, 3) == 0
    assert count_barriers(parse_word("W(3,2,1)"), 1, 3) == 1


def test_barrier_decompose():
    combo = (WordCombination.of(parse_word("W(5,4)|AF(W(1),W(2),W(3))"), 2)
             + WordCombination.of(parse_word("W(2,1)|W(3)"), 1))
    parts = barrier_decompose(combo, 1, 2)
    assert set(parts) == {1, 2}
    assert parts[2] == WordCombination.of(parse_word("W(5,4)|AF(W(1),W(2),W(3))"), 2)


# ---------------------------------------------------------------------------
# word combinations


def test_word_combination_arithmetic():
    a = WordCombination.of(parse_word("W(2,1)"), 2)
    b = WordCombination.of(parse_word("W(2,1)"), -2)
    assert (a + b).is_zero()
    assert a.scale(Fraction(1, 2)) == WordCombination.of(parse_word("W(2,1)"))
    assert repr(WordCombination()) == "0"
    assert (a - a).is_zero()


def test_word_combination_cycle():
    combo = WordCombination.of(parse_word("W(2,1)"), 3)
    assert combo.cycle(2) == word_cycle(parse_word("W(2,1)"), 2).scale(3)
    with pytest.raises(ValueError):
        WordCombination().cycle(2)


def test_failed_rewrite_checks_raise_under_python_O():
    # a measure that does not drop, a wheel that does not properize and a
    # closed form that loses its leading coefficient are failed claims
    printed = run_optimized("""
        import sys
        import stripconf.algebra as algebra
        from stripconf.homology import CertificateError

        def attempt(call):
            try:
                call()
            except CertificateError:
                print("CertificateError")

        measure = algebra._measure
        algebra._measure = lambda word: ((), 0, 0)
        attempt(lambda: algebra.reduce("W(1)|W(2)", 3))
        algebra._measure = measure
        algebra.solve_exact = lambda rows, target: None
        attempt(lambda: algebra.properize((1, 2)))
        algebra.r5_closed_form = lambda sizes: ((-1,) * len(sizes), (1,) * len(sizes))
        attempt(lambda: algebra.reduce("W(1)|AF(W(2),W(3),W(4))", 2))
        print(sys.flags.optimize)
    """)
    assert printed == ["CertificateError"] * 3 + ["1"]

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import stripconf.algebra as algebra

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
    _measure,
    _normalize_filter,
    _r5_rest,
    _rewrite,
)
from stripconf.cells import cell_complex, cell_index
from stripconf.chains import ChainVector
from stripconf.cycles import (AvgFilter, Filter, GeneratorWord, Node, Leaf, Wheel,
                              admissible_sizes, comb, parse_word, wheel_cycle,
                              word_cycle)
from stripconf.homology import is_boundary
from stripconf.linalg import echelon_of_rows
from stripconf.maps import tree_labels

from conftest import run_optimized, wheels_on_blocks


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


def split_trees(labels):
    """Every split tree whose leaves read `labels` from left to right."""
    if len(labels) == 1:
        yield Leaf(labels[0])
        return
    for k in range(1, len(labels)):
        for left in split_trees(labels[:k]):
            for right in split_trees(labels[k:]):
                yield Node(left, right)


def random_split_tree(labels, rng):
    if len(labels) == 1:
        return Leaf(labels[0])
    k = rng.randint(1, len(labels) - 1)
    return Node(random_split_tree(labels[:k], rng), random_split_tree(labels[k:], rng))


def properize_by_solving(tree):
    """R1 by an exact linear solve, independent of properize(): the wheel
    cycles at full width as columns over the top-degree cells, the proper
    wheels in lex order of the labels after the top one."""
    labels = tuple(sorted(tree_labels(tree)))
    n = len(labels)
    index = cell_index(cell_complex(labels, n), n - 1)
    propers = [(labels[-1],) + rest for rest in itertools.permutations(labels[:-1])]
    rows = [wheel_cycle(p, n).to_column(index) for p in propers]
    sol = echelon_of_rows(rows, track=True).coordinates(wheel_cycle(tree, n).to_column(index))
    assert sol is not None
    return {propers[i]: c for i, c in sorted(sol.items())}


def assert_properize_matches_the_solve(tree):
    got, want = properize(tree), properize_by_solving(tree)
    assert list(got.items()) == list(want.items())
    assert all(type(c) is int for c in got.values())


def test_properize_matches_the_linear_solve_on_every_small_tree():
    trees = [tree for n in range(1, 5) for order in itertools.permutations(range(1, n + 1))
             for tree in split_trees(order)]
    assert len(trees) == 135
    for tree in trees:
        assert_properize_matches_the_solve(tree)


def test_properize_matches_the_linear_solve_on_random_trees():
    rng = random.Random(15)
    for _ in range(40):
        labels = rng.sample(range(1, 10), rng.randint(5, 6))
        assert_properize_matches_the_solve(random_split_tree(labels, rng))


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


SINGLETONS = (Wheel((1,)), Wheel((2,)), Wheel((3,)), Wheel((4,)))

# (name, width, parameters, the direct call, parameters the family rejects)
DISPATCHED = [
    ("r1", 3, dict(wheel=comb((1, 2, 3))), lambda: r1_instance(comb((1, 2, 3)), 3),
     dict(wheel=comb((1, 2, 3, 4)))),
    ("R3", 2, dict(wheels=SINGLETONS[:3], order=(2, 0, 1)),
     lambda: r3_instance(SINGLETONS[:3], (2, 0, 1), 2),
     dict(wheels=SINGLETONS[:3], order=(0, 0, 1))),
    ("R4", 3, dict(wheels=(comb((1, 2)), comb((3,)), comb((4,))), slot=0),
     lambda: r4_instance((comb((1, 2)), comb((3,)), comb((4,))), 0, 3),
     dict(wheels=(comb((1, 2)), comb((2,)), comb((3,))), slot=0)),
    ("r5", 2, dict(wheels=SINGLETONS), lambda: r5_instance(SINGLETONS, 2),
     dict(wheels=SINGLETONS[:2])),
]


@pytest.mark.parametrize("name,width,params,direct,bad", DISPATCHED,
                         ids=[case[0].upper() for case in DISPATCHED])
def test_relation_dispatcher_reaches_each_family(name, width, params, direct, bad):
    inst = relation_instance(name, width, **params)
    assert inst.name == name.upper() and inst.verified()
    assert inst == direct()
    with pytest.raises(ValueError):
        relation_instance(name, width, **bad)


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


def _rewrite_filter_shapes(width):
    """Wheel sizes of the admissible, nontrivial filters on three or more
    wheels that the rewriting pushes through: the benchmark's pool shapes."""
    return [sizes for m in range(3, width + 2)
            for sizes in itertools.combinations_with_replacement(range(1, width + 1), m)
            if sum(sizes) > width and sum(sizes) - sizes[0] <= width]


@pytest.mark.parametrize("width", (2, 3, 4))
def test_r5_rests_match_normalize_filter(width):
    seen = 0
    for shape in _rewrite_filter_shapes(width):
        for n0 in range(1, width + 1):
            sizes = (n0,) + shape
            # every assignment of consecutive label blocks to the wheels, so
            # wheels of one size meet in every order of their top labels
            for order in itertools.permutations(range(len(sizes))):
                blocks = wheels_on_blocks(tuple(sizes[j] for j in order))
                w0, *wheels = (blocks[order.index(j)] for j in range(len(sizes)))
                af, _ = _normalize_filter(wheels)
                group = (w0,) + af.wheels
                for k in range(len(group)):
                    assert _r5_rest(w0, af, k) == _normalize_filter(group[:k] + group[k + 1:])
                    seen += 1
    assert seen > 100


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
    with pytest.raises(ValueError, match="inside AF.* is improper"):
        reduce("AF(W(1,2),W(3),W(4))", 3)
    with pytest.raises(ValueError, match="plain filter"):
        reduce(GeneratorWord((Filter(SINGLETONS[:3]),)), 2)


def relabelled_shapes(labels=(5, 7)):
    """(combination, width) for every shape of 1-3 bare wheels in front of
    one or two admissible, nontrivial filters, on 5-7 labels by default, at
    widths 2-4: three times the word relabelled by act() with a seeded
    permutation of the labels of every factor."""
    rng = random.Random(0)
    out = []
    for width in (2, 3, 4):
        filters = [sizes for m in range(3, labels[1] + 1)
                   for sizes in itertools.combinations_with_replacement(range(1, width + 1), m)
                   if sum(sizes) > width and admissible_sizes(sizes, width)]
        fronts = [bare for nbare in (1, 2, 3)
                  for bare in itertools.product(range(1, width + 1), repeat=nbare)]
        backs = [fs for nf in (1, 2) for fs in itertools.product(filters, repeat=nf)]
        for bare, fs in itertools.product(fronts, backs):
            if not labels[0] <= sum(bare) + sum(map(sum, fs)) <= labels[1]:
                continue
            factors = list(wheels_on_blocks(bare))
            start = sum(bare) + 1
            for sizes in fs:
                factors.append(AvgFilter(wheels_on_blocks(sizes, start)))
                start += sum(sizes)
            word = GeneratorWord(tuple(factors))
            for _ in range(3):
                mapping = {}
                for f in factors:
                    block = sorted(GeneratorWord((f,)).labels())
                    image = list(block)
                    rng.shuffle(image)
                    mapping.update(zip(block, image))
                out.append((act(mapping, word), width))
    return out


def worklist_reduce(combo, width, pick):
    """reduce() as a plain worklist: `pick` chooses the next pending word,
    and a word that comes back after its rewrite is rewritten again.
    Returns the normal form and the rewritten words, in order."""
    todo = {w: c for w, c in combo.terms.items()
            if not any(isinstance(f, AvgFilter) and f.trivial(width) for f in w.factors)}
    done, rewritten = {}, []
    while todo:
        word = pick(list(todo))
        coeff = todo.pop(word)
        spot = _first_violation(word, width)
        if spot is None:
            done[word] = done.get(word, 0) + coeff
            continue
        rewritten.append(word)
        for new, c, _ in _rewrite(word, coeff, width, spot, _measure(word)):
            todo[new] = todo.get(new, 0) + c
    return WordCombination(done), rewritten


def with_descendants(combo, width):
    """The combination plus every word rewritten on its way to normal form.

    Rewriting one of these words reaches no word from two parents; in the
    sum, a word that a rewrite produces also comes from the input, so an
    order that rewrites it before its parent rewrites it twice."""
    _, rewritten = worklist_reduce(combo, width, lambda words: words[0])
    return combo + WordCombination({w: 1 for w in rewritten})


def test_reduce_is_independent_of_the_rewriting_order():
    rng = random.Random(7)
    shapes = relabelled_shapes()
    assert len(shapes) == 3 * 37
    assert {width for _, width in shapes} == {2, 3, 4}
    assert any(sum(isinstance(f, AvgFilter) for f in w.factors) == 2
               for combo, _ in shapes for w in combo.terms)
    for combo, width in shapes:
        for x in (combo, with_descendants(combo, width)):
            out = reduce(x, width)
            assert worklist_reduce(x, width, lambda words: words[0])[0] == out
            assert worklist_reduce(x, width, rng.choice)[0] == out


def test_reduce_rewrites_each_word_once(monkeypatch):
    seen = []
    honest = algebra._rewrite

    def counted(word, *args):
        seen.append(word)
        return honest(word, *args)

    monkeypatch.setattr(algebra, "_rewrite", counted)
    big = act({3: 5, 4: 3, 5: 4, 7: 8, 8: 7},
              parse_word("W(1)|W(2)|AF(W(3),W(4),W(5))|W(6)|AF(W(7),W(8),W(9))"))
    for combo, width in relabelled_shapes(labels=(7, 7)) + [(big, 2)]:
        x = with_descendants(combo, width)
        seen.clear()
        reduce(x, width)
        assert len(seen) == len(set(seen))
    assert len(seen) > 50


# sha256 of repr(quotient_reduce(act(mapping, word), d, width)) for words on
# 8-9 labels, frozen when reduce() still took its words in string order: the
# order in which words are rewritten must not change a normal form
PINNED_NORMAL_FORMS = [
    ("W(1)|W(2)|AF(W(3),W(4),W(5))|W(6)|AF(W(7),W(8),W(9))",
     {3: 5, 4: 3, 5: 4, 7: 8, 8: 7}, 0, 2, 175,
     "32a859d13acfb0feb5aaa87d8aa576d69a80e8060919a411367c98a4c87ddbfc"),
    ("W(2,1)|W(4,3)|W(6,5)|AF(W(7),W(8),W(9))",
     {1: 2, 2: 1, 3: 4, 4: 3, 7: 9, 8: 7, 9: 8}, 1, 2, 1,
     "55b7cbe185d522c8a9bad567c39f2d0b731edf27f0a4fbf99be61a80e67e812b"),
    ("W(3,2,1)|W(4)|W(5)|AF(W(6),W(7),W(8),W(9))",
     {1: 3, 2: 1, 3: 2, 6: 7, 7: 9, 9: 6}, 0, 3, 34,
     "03d705ceda1140d62f92240cd96bbea22bf51b15c42b132570d8d8470ce3c455"),
    ("W(2,1)|W(5,4,3)|AF(W(6),W(7),W(9,8))",
     {1: 2, 2: 1, 3: 5, 5: 3}, 1, 3, 2,
     "a4f9c1b5281af0952a5861832455a7e75860055180927ddd641eac7f328b3f60"),
    ("W(1)|W(2)|W(3)|W(4)|AF(W(5),W(6),W(7),W(8),W(9))",
     {5: 8, 6: 7, 7: 9, 8: 6, 9: 5}, 0, 4, 41,
     "30003fbec4c3a26865ea8022a2e46b2077c0614ac7e59cb0b70963ebfd9c76f9"),
    ("W(2,1)|AF(W(4,3),W(6,5),W(8,7))",
     {1: 2, 2: 1, 3: 8, 6: 7, 7: 3, 8: 6}, 1, 4, 7,
     "dd68d13afacfa028e41a909f4ceece9a53a64b0a12742a9ba4fb7ba709f1e92a"),
]


@pytest.mark.parametrize("text,mapping,d,width,terms,digest", PINNED_NORMAL_FORMS)
def test_large_normal_forms_match_the_pinned_digest(text, mapping, d, width, terms, digest):
    out = quotient_reduce(act(mapping, parse_word(text)), d, width)
    assert len(out.terms) == terms
    assert hashlib.sha256(repr(out).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the cost guards of the rewrite loop: cached word hashes, int coefficients


def test_a_built_word_hashes_without_hashing_its_wheels(monkeypatch):
    word = parse_word("W(2,1)|AF(W(3),W(4),W(5))|W(6)|AF(W(7),W(8),W(9))")
    assert len(word.labels()) == 9
    filters = [f for f in word.factors if isinstance(f, AvgFilter)]
    assert len(filters) == 2
    expected = [hash((word.factors,))] + [hash((f.wheels,)) for f in filters]
    calls = []
    honest = Wheel.__hash__

    def counted(self):
        calls.append(self)
        return honest(self)

    monkeypatch.setattr(Wheel, "__hash__", counted)
    assert hash(Wheel((1,))) == hash(((1,),)) and len(calls) == 1
    calls.clear()
    assert [hash(word)] + [hash(f) for f in filters] == expected
    assert {word: 1}[word] == 1
    assert calls == []


# (u, v, mapping, width): act() properizes and re-sorts, reduce() rewrites
SCALED_CASES = [
    ("W(2,1)|W(3)|AF(W(4),W(5),W(6))", "W(1)|W(3,2)|AF(W(4),W(5),W(6))",
     {1: 2, 2: 1, 4: 6, 6: 4}, 2),
    ("W(3,1,2)|W(4)|AF(W(5),W(6),W(8,7))", "W(4)|W(3,2,1)|AF(W(5),W(6),W(8,7))",
     {1: 3, 3: 1, 5: 8, 8: 5}, 3),
]


@pytest.mark.parametrize("u,v,mapping,width", SCALED_CASES)
def test_act_and_reduce_commute_with_non_integral_scalars(u, v, mapping, width):
    u, v = parse_word(u), parse_word(v)
    third, half = Fraction(1, 3), Fraction(1, 2)
    moved_u, moved_v = act(mapping, u), act(mapping, v)
    assert act(mapping, WordCombination.of(u, third)) == moved_u.scale(third)
    mixed = WordCombination({u: half, v: 3})
    assert act(mapping, mixed) == moved_u.scale(half) + moved_v.scale(3)
    reduced_u, reduced_v = reduce(moved_u, width), reduce(moved_v, width)
    assert len(reduced_u.terms) > 1 or len(reduced_v.terms) > 1
    assert reduce(moved_u.scale(third), width) == reduced_u.scale(third)
    assert (reduce(moved_u.scale(half) + moved_v.scale(3), width)
            == reduced_u.scale(half) + reduced_v.scale(3))


@pytest.mark.parametrize("u,v,mapping,width", SCALED_CASES)
def test_act_and_reduce_return_fractions(u, v, mapping, width):
    x = WordCombination({parse_word(u): Fraction(1, 2), parse_word(v): 3})
    outputs = [act(mapping, x), act(mapping, parse_word(v))]
    outputs += [f(moved, width) for moved in list(outputs) for f in (
        reduce, lambda y, w: quotient_reduce(y, 1, w))]
    assert any(not out.is_zero() for out in outputs[2:])
    for out in outputs:
        assert all(type(c) is Fraction for c in out.terms.values())


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


def test_stability_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="degree >= 0, not 3 and -1"):
        stability_params(-1, 3)
    with pytest.raises(ValueError, match="order 1 at degree -1 is out of range"):
        higher_stability_params(1, -1, 3)


def test_generation_check():
    for width in (2, 3):
        bound, ok = generation_check(1, width)
        assert ok
        assert bound == (3 if width == 2 else 2)


def test_generation_check_reads_the_generation_degree():
    assert generation_check(2, 4)[0] == stability_params(2, 4).generation_degree
    with pytest.raises(ValueError, match="width >= 2"):
        generation_check(1, 1)


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
    # a measure that does not drop, a wheel whose proper combination does
    # not rebuild its chain and a closed form that loses its leading
    # coefficient are failed claims
    printed = run_optimized("""
        import sys
        import stripconf.algebra as algebra
        import stripconf.maps as maps
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
        algebra.comb = lambda labels: maps.comb(tuple(labels)[::-1])
        attempt(lambda: algebra.properize((1, 2, 3)))
        algebra.comb = maps.comb
        algebra.r5_closed_form = lambda sizes: ((-1,) * len(sizes), (1,) * len(sizes))
        attempt(lambda: algebra.reduce("W(1)|AF(W(2),W(3),W(4))", 2))
        print(sys.flags.optimize)
    """)
    assert printed == ["CertificateError"] * 3 + ["1"]

import dataclasses
import itertools
from fractions import Fraction

import pytest

from stripconf.algebra import r5_closed_form, r5_instance
from stripconf.basis import AM, AMW, enumerate_basis
from stripconf.chains import concat, is_cycle
from stripconf.cycles import (
    AvgFilter,
    Filter,
    GeneratorWord,
    Wheel,
    WordSyntaxError,
    _generator_cycle,
    _shape_cycle,
    averaged_filter_cycle,
    filter_cycle,
    format_word,
    parse_word,
    wheel_cycle,
    word_cycle,
)
from stripconf.maps import Leaf, Node, comb, tree_labels

from conftest import (assert_identical, direct_generator_cycle, direct_word_cycle,
                      run_optimized, wheels_on_blocks)


# ---------------------------------------------------------------------------
# wheels and trees


def test_wheel_basic_properties():
    w = Wheel((5, 2, 4))
    assert w.size == 3
    assert w.top == 5
    assert w.is_proper()
    assert not Wheel((2, 5, 4)).is_proper()
    assert str(w) == "W(5,2,4)"


def test_wheel_validation():
    with pytest.raises(ValueError):
        Wheel(())
    with pytest.raises(ValueError):
        Wheel((1, 1))


def test_rank_key_orders_by_size_then_top():
    assert Wheel((2,)).rank_key() < Wheel((3,)).rank_key()
    assert Wheel((9,)).rank_key() < Wheel((2, 1)).rank_key()
    assert sorted([Wheel((4, 1)), Wheel((3,)), Wheel((5, 2))], key=Wheel.rank_key) == \
        [Wheel((3,)), Wheel((4, 1)), Wheel((5, 2))]


def is_left_comb(tree) -> bool:
    """Whether every node of the tree has a leaf on its right."""
    while isinstance(tree, Node):
        if not isinstance(tree.right, Leaf):
            return False
        tree = tree.left
    return True


def test_comb_is_the_left_comb():
    t = comb((3, 1, 2))
    assert t == Node(Node(Leaf(3), Leaf(1)), Leaf(2))
    assert tree_labels(t) == (3, 1, 2)
    assert is_left_comb(t)
    assert not is_left_comb(Node(Leaf(1), Node(Leaf(2), Leaf(3))))


def test_wheel_cycle_frozen_values():
    assert wheel_cycle(Wheel((1,)), 2).coeffs == {((1,),): 1}
    assert wheel_cycle(Wheel((2, 1)), 2).coeffs == {((2, 1),): 1, ((1, 2),): 1}
    # improper wheels give the same chain on two disks
    assert wheel_cycle(Wheel((1, 2)), 2) == wheel_cycle(Wheel((2, 1)), 2)
    assert wheel_cycle(Wheel((3, 1, 2)), 3).coeffs == {
        ((3, 1, 2),): 1, ((1, 3, 2),): 1, ((2, 3, 1),): -1, ((2, 1, 3),): -1}


def test_wheel_cycle_respects_width_and_weights():
    with pytest.raises(ValueError):
        wheel_cycle(Wheel((2, 1)), 1)
    z = wheel_cycle(Wheel((9, 1)), 3, weights={9: 2, 1: 1})
    # splitting weights 2 and 1 flips with (-1)^{2*1-1}
    assert z.coeffs == {((9, 1),): 1, ((1, 9),): -1}
    assert is_cycle(z)


def test_wheel_cycles_are_cycles(rng):
    for _ in range(10):
        n = rng.randint(1, 4)
        labels = rng.sample(range(1, 9), n)
        labels.sort(reverse=True)
        z = wheel_cycle(Wheel(tuple(labels)), n)
        assert is_cycle(z)
        assert z.degree == n - 1


# ---------------------------------------------------------------------------
# filters


def test_filter_metadata():
    f = Filter((Wheel((3, 1)), Wheel((2,))))
    assert f.arity == 2
    assert f.sizes == (2, 1)
    assert f.total == 3
    assert f.least_wheel() == Wheel((2,))
    assert f.admissible(2)
    assert not f.admissible(1)
    assert not f.trivial(2)
    assert f.trivial(3)
    assert f.labels() == (1, 2, 3)


def test_filter_validation():
    with pytest.raises(ValueError):
        Filter((Wheel((1,)),))
    with pytest.raises(ValueError):
        Filter((Wheel((1, 2)), Wheel((2,))))


def test_two_wheel_filter_is_the_display_form():
    z = filter_cycle((Wheel((1,)), Wheel((2,))), 2)
    assert z.coeffs == {((1,), (2,)): 1, ((2,), (1,)): -1}
    # sizes 2,1: sign (-1)^{(2-1)(1-1)+1} = -1
    z = filter_cycle((Wheel((2, 1)), Wheel((3,))), 2)
    assert z.coeffs == {
        ((2, 1), (3,)): 1, ((1, 2), (3,)): 1,
        ((3,), (2, 1)): -1, ((3,), (1, 2)): -1}


def test_raw_filter_chain_differs_from_display_by_first_size():
    # the spun construction on two wheels equals (-1)^{n1} times the display
    # form W1|W2 + (-1)^{(n1-1)(n2-1)+1} W2|W1, for sizes 1 to 3 on each side;
    # the R5 relation reads that raw form for its two-wheel AF_k
    for n1, n2 in itertools.product((1, 2, 3), repeat=2):
        wheels = (Wheel(tuple(range(n1, 0, -1))), Wheel(tuple(range(10 + n2, 10, -1))))
        w1, w2 = (wheel_cycle(w, 4) for w in wheels)
        disp = filter_cycle(wheels, 4)
        assert disp == concat(w1, w2) + concat(w2, w1).scale((-1) ** ((n1 - 1) * (n2 - 1) + 1))
        raw = _generator_cycle(tuple(w.tree() for w in wheels), 4, False)
        assert raw == disp.scale((-1) ** n1)
        w0 = Wheel((20,))
        left, right = r5_closed_form((1, n1, n2))
        wk = (wheel_cycle(w0, 4), w1, w2)
        afk = (raw, filter_cycle((w0, wheels[1]), 4).scale(-1),
               filter_cycle((w0, wheels[0]), 4).scale(-1))
        terms = [t for k in range(3) for t in (concat(wk[k], afk[k]).scale(left[k]),
                                               concat(afk[k], wk[k]).scale(right[k]))]
        combination = sum(terms[1:], terms[0])
        assert r5_instance((w0, *wheels), 4).difference == combination


def test_one_generator_cycle_entry_serves_every_caller():
    # wheels, filters, averaged filters, words and the R5 relation share the
    # cached chains of their shapes: once R5 has built them, the others
    # build nothing, and words of one shape share one template
    _shape_cycle.cache_clear()
    wheels = wheels_on_blocks((2, 1, 3))
    pairs = [wheels[:k] + wheels[k + 1:] for k in range(3)]
    r5_instance(wheels, 4)
    misses = _shape_cycle.cache_info().misses
    assert misses == 6  # three wheels and three raw two-wheel filters
    calls = ([lambda w=w: wheel_cycle(w, 4) for w in wheels]
             + [lambda p=p: filter_cycle(p, 4) for p in pairs]
             + [lambda p=p: averaged_filter_cycle(p, 4) for p in pairs])
    for call in calls:
        call()
    assert _shape_cycle.cache_info().misses == misses
    averaged_filter_cycle(wheels, 5)
    misses += 1
    for call in [*calls, lambda: r5_instance(wheels, 4),
                 lambda: averaged_filter_cycle(wheels, 5)]:
        call()
        assert _shape_cycle.cache_info().misses == misses
    # two words of one shape on other labels: one template, built from the
    # wheels' entries above
    for text in ["W(2,1)|W(3)", "W(9,4)|W(6)"]:
        word_cycle(parse_word(text), 4)
    assert _shape_cycle.cache_info().misses == misses + 1


def test_plain_filter_coefficients_are_ints():
    # a plain filter is a signed sum of faces: no Fraction arithmetic
    for wheels in [(Wheel((1,)), Wheel((2,))), (Wheel((2, 1)), Wheel((3,))),
                   (Wheel((1,)), Wheel((2,)), Wheel((3,))),
                   (Wheel((2, 1)), Wheel((3,)), Wheel((5, 4)), Wheel((6,)))]:
        z = filter_cycle(wheels, 6)
        assert z.coeffs and all(type(v) is int for v in z.coeffs.values()), wheels


def test_averaged_filter_on_two_wheels_is_the_filter():
    wheels = (Wheel((2, 1)), Wheel((3,)))
    assert averaged_filter_cycle(wheels, 3) == filter_cycle(wheels, 3)


def test_averaged_filter_hexagon():
    z = averaged_filter_cycle((Wheel((1,)), Wheel((2,)), Wheel((3,))), 2)
    assert is_cycle(z)
    assert len(z.coeffs) == 12
    assert set(z.coeffs.values()) <= {Fraction(1, 2), Fraction(-1, 2)}
    assert z.degree == 1


def test_filter_admissibility_enforced():
    with pytest.raises(ValueError):
        filter_cycle((Wheel((1,)), Wheel((2,)), Wheel((3,))), 1)
    # admissible but not trivial at width 2
    z = filter_cycle((Wheel((1,)), Wheel((2,)), Wheel((3,))), 2)
    assert is_cycle(z)


# ---------------------------------------------------------------------------
# words


def test_word_cycle_concatenates_factors():
    word = GeneratorWord((Wheel((2, 1)), Wheel((3,))))
    z = word_cycle(word, 2)
    assert z.coeffs == {((2, 1), (3,)): 1, ((1, 2), (3,)): 1}
    assert z.degree == word.degree() == 1


def test_empty_word_is_the_unit():
    z = word_cycle(GeneratorWord(()), 2)
    assert z.coeffs == {(): 1}
    assert z.degree == 0


def test_word_degree():
    word = parse_word("W(3,1)|AF(W(2),W(5,4),W(6))")
    assert word.degree() == 1 + (4 - 2)


def test_word_labels_disjoint():
    with pytest.raises(ValueError):
        GeneratorWord((Wheel((1,)), Wheel((2, 1))))


# ---------------------------------------------------------------------------
# the word objects' contract: hash, size, rank and sorted labels are fixed
# at construction without changing equality, hashing or printing


def test_word_objects_hash_as_their_one_field():
    wheels = (Wheel((2,)), Wheel((5, 4)), Wheel((6,)))
    word = GeneratorWord((Wheel((3, 1)), AvgFilter(wheels)))
    assert hash(wheels[1]) == hash(((5, 4),))
    assert hash(Filter(wheels)) == hash((wheels,))
    assert hash(AvgFilter(wheels)) == hash((wheels,))
    assert hash(word) == hash((word.factors,))


def test_equal_word_objects_hash_equal():
    text = "W(3,1)|AF(W(2),W(5,4),W(6))"
    a, b = parse_word(text), parse_word(" " + text + " ")
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b}) == 1
    wheels = (Wheel((1,)), Wheel((2,)))
    assert Filter(wheels) == Filter(wheels)
    assert Filter(wheels) != AvgFilter(wheels)
    assert len({Filter(wheels), AvgFilter(wheels)}) == 2


def test_word_objects_print_as_before():
    word = parse_word("W(3,1)|AF(W(2),W(5,4),W(6))")
    assert str(word) == "W(3,1)|AF(W(2),W(5,4),W(6))"
    assert repr(word) == (
        "GeneratorWord(factors=(Wheel(labels=(3, 1)), AvgFilter(wheels=("
        "Wheel(labels=(2,)), Wheel(labels=(5, 4)), Wheel(labels=(6,))))))")
    f = Filter((Wheel((2,)), Wheel((1,))))
    assert str(f) == "F(W(2),W(1))"
    assert repr(f) == "Filter(wheels=(Wheel(labels=(2,)), Wheel(labels=(1,))))"


def test_word_objects_are_frozen():
    wheel = Wheel((2, 1))
    f = AvgFilter((Wheel((1,)), Wheel((2,)), Wheel((3,))))
    word = GeneratorWord((wheel,))
    for obj, name, value in [(wheel, "labels", (1, 2)), (wheel, "size", 5),
                             (f, "wheels", ()), (word, "factors", ())]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
    assert (wheel.size, wheel.rank_key(), f.labels()) == (2, (2, 2), (1, 2, 3))


def test_word_objects_still_validate():
    with pytest.raises(ValueError, match="empty wheel"):
        Wheel(())
    with pytest.raises(ValueError, match="distinct"):
        Wheel((3, 1, 3))
    with pytest.raises(ValueError, match="disjoint"):
        AvgFilter((Wheel((1,)), Wheel((3, 2)), Wheel((2, 4))))
    with pytest.raises(ValueError, match="disjoint"):
        GeneratorWord((Wheel((4,)), AvgFilter((Wheel((1,)), Wheel((2,)), Wheel((4, 3))))))


def test_parse_word_roundtrip():
    for text in ["W(1)", "W(3,1)|AF(W(2),W(5,4))", "W(2,1)|W(3)",
                 "AF(W(1),W(2),W(3))"]:
        word = parse_word(text)
        assert format_word(word) == text
        assert parse_word(" " + text.replace("|", " | ") + " ") == word


def test_parse_word_errors():
    with pytest.raises(WordSyntaxError) as e:
        parse_word("X(1)")
    assert e.value.position == 0
    with pytest.raises(WordSyntaxError) as e:
        parse_word("W(1)|")
    assert e.value.position == 5
    with pytest.raises(WordSyntaxError):
        parse_word("W(1,)")
    with pytest.raises(WordSyntaxError):
        parse_word("AF(W(1))")
    with pytest.raises(WordSyntaxError):
        parse_word("W(1)|W(1)")


def test_word_cycles_are_cycles():
    for text in ["W(2,1)|W(3)", "AF(W(1),W(2),W(3))|W(4)", "W(4,2)|AF(W(1),W(3))"]:
        z = word_cycle(parse_word(text), 3)
        assert is_cycle(z)


def test_failed_cycle_checks_raise_under_python_O():
    # each generator chain is checked to be a cycle; make the check fail
    # first for multi-block chains, then for every chain
    printed = run_optimized("""
        import sys
        import stripconf.cycles as cycles
        from stripconf.cycles import Wheel, parse_word
        from stripconf.homology import CertificateError

        def attempt(call):
            try:
                call()
            except CertificateError:
                print("CertificateError")

        cycles.is_cycle = lambda chain: all(len(cell) == 1 for cell in chain.coeffs)
        attempt(lambda: cycles.filter_cycle((Wheel((1,)), Wheel((2,))), 2))
        attempt(lambda: cycles.averaged_filter_cycle(((1,), (2,), (3,)), 2))
        attempt(lambda: cycles.word_cycle(parse_word("W(1)|W(2)"), 2))
        cycles.is_cycle = lambda chain: False
        attempt(lambda: cycles.wheel_cycle(Wheel((2, 1)), 2))
        print(sys.flags.optimize)
    """)
    assert printed == ["CertificateError"] * 4 + ["1"]


# ---------------------------------------------------------------------------
# shape templates: relabeled, they are the chains built on the labels


def assert_same_chain(got, want):
    assert (got.spec, got.degree) == (want.spec, want.degree)
    assert_identical(got.coeffs, want.coeffs)


@pytest.mark.parametrize("width", [2, 3, 4])
def test_basis_word_cycles_equal_the_direct_construction(width):
    for n in range(6):
        for style in (AM, AMW):
            for degree in range(max(n, 1)):
                for word in enumerate_basis(n, width, degree, style):
                    assert_same_chain(word_cycle(word, width), direct_word_cycle(word, width))


def test_word_cycles_on_gapped_labels_equal_the_direct_construction(rng):
    for _ in range(80):
        labels = rng.sample((2, 5, 7, 11, 13, 20), rng.randint(1, 6))
        factors = []
        while labels:
            group = labels[:rng.randint(1, len(labels))]
            labels = labels[len(group):]
            if len(group) > 1 and rng.random() < 0.5:
                cuts = sorted(rng.sample(range(1, len(group)), min(len(group) - 1, 2)))
                factors.append(AvgFilter(tuple(Wheel(tuple(group[i:j])) for i, j
                                               in zip([0] + cuts, cuts + [len(group)]))))
            else:
                factors.append(Wheel(tuple(group)))
        word = GeneratorWord(tuple(factors))
        width = rng.choice((None, len(word.labels())))
        assert_same_chain(word_cycle(word, width), direct_word_cycle(word, width))


def test_filters_on_split_trees_equal_the_direct_construction():
    t = Node(Leaf(5), Node(Leaf(2), Leaf(7)))
    u = Node(Node(Leaf(11), Leaf(3)), Node(Leaf(4), Leaf(9)))
    for trees in [(t, Leaf(4)), (Leaf(4), t), (Leaf(3), t, Leaf(1)), (t, u), (u, Leaf(1), t)]:
        width = sum(len(tree_labels(tree)) for tree in trees)
        raw = direct_generator_cycle(trees, width)
        odd_first = len(trees) == 2 and len(tree_labels(trees[0])) % 2
        assert_same_chain(filter_cycle(trees, width), -raw if odd_first else raw)
        if len(trees) > 2:
            assert_same_chain(averaged_filter_cycle(trees, width),
                              direct_generator_cycle(trees, width, True))


def test_weighted_wheel_cycles_equal_the_direct_construction():
    tree = Node(Leaf(9), Node(Leaf(3), Leaf(4)))
    for weights in [{9: 2, 3: 1, 4: 3}, {9: 1, 3: 2, 4: 1}]:
        ascending = tuple(weights[a] for a in sorted(weights))
        assert_same_chain(wheel_cycle(tree, 6, weights),
                          direct_generator_cycle((tree,), 6, weights=ascending))


def test_a_block_over_the_width_is_named_by_the_callers_labels():
    # templates are built on labels 1..n, but the message names the caller's block
    calls = [
        (lambda: wheel_cycle(Node(Leaf(9), Node(Leaf(3), Leaf(4))), 5, {9: 2, 3: 1, 4: 3}),
         "block (9, 3, 4) exceeds width 5"),
        (lambda: wheel_cycle(Wheel((9, 8, 7)), 2), "block (9, 8, 7) exceeds width 2"),
        (lambda: word_cycle(parse_word("W(9,8,7)|W(4)"), 2), "block (9, 8, 7) exceeds width 2"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_corrupted_templates_fail_the_per_call_check_under_python_O():
    # every chain handed out is checked, also when its template was built
    # and checked before: drop one term of two cached templates
    printed = run_optimized("""
        import sys
        from stripconf.cycles import (Wheel, _shape_cycle, _shape_of, parse_word,
                                      wheel_cycle, word_cycle)
        from stripconf.homology import CertificateError

        calls = [lambda: word_cycle(parse_word("W(5,2)|W(4)"), 2),
                 lambda: wheel_cycle(Wheel((3, 1)), 2)]
        for call in calls:
            call()
        wheel = ((_shape_of(Wheel((2, 1))),), False, 1)
        for shape in [(wheel, ((_shape_of(Wheel((1,))),), False, 1)), (wheel,)]:
            template = _shape_cycle(shape, 2, None)
            del template.coeffs[next(iter(template.coeffs))]
        for call in calls:
            try:
                call()
                print("accepted")
            except CertificateError:
                print("CertificateError")
        print(sys.flags.optimize)
    """)
    assert printed == ["CertificateError"] * 2 + ["1"]

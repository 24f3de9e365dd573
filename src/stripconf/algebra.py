"""The twisted algebra of wheels and averaged filters.

Homology classes of the ordered complexes multiply by concatenation.  The
generators are proper wheels and admissible nontrivial averaged filters on
at least three proper wheels in increasing rank; a generator word is a
concatenation of those.  This module implements the relations between
generator words, each with an explicit chain-level witness:

R1  an improper wheel is an exact integral combination of the proper
    wheels on the same labels (no boundary needed);
R2  two adjacent wheels whose sizes fit in the width together commute up
    to the sign (-1)^{(n1-1)(n2-1)}, witnessed by the merged one-block
    chain;
R3  permuting the wheels of an averaged filter multiplies it by the
    weighted sign of the permutation at the wheel sizes, exactly;
R4  averaged filters are multilinear in each wheel slot, so an improper
    wheel inside a filter expands by its R1 combination, exactly;
R5  for wheels W_1..W_{m+1} whose every (m-1)-fold size sum fits, the
    signed sums of W_k|AF_k and AF_k|W_k agree modulo boundaries, where
    AF_k averages all wheels but W_k; the witness collects the middle
    two-block faces of the top permutohedron cell.

reduce() rewrites any combination of generator words into the normal form
of the averaged-filter basis, using R2 on inverted wheel pairs and R5 on
a wheel stuck left of a filter it does not outrank.  Termination is
guarded by an explicit lexicographic measure, checked to drop from every
rewritten word to each of its children; a failed check raises
CertificateError.  Words are rewritten largest measure first, so each is
rewritten once, after every word that produces it.

Inside act() and reduce() an integral coefficient is carried as an int and
any other as a Fraction: every rewrite multiplies by an integer sign, and
properize() reads its R1 coefficients off the wheel's integer one-block
chain, so they are always ints.  The WordCombination they return converts
each value to a Fraction, once.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .basis import AMW, _adjacency_ok, enumerate_basis
from .cells import wsgn_pairs
from .chains import ChainVector, boundary, bounds, concat, is_cycle
from .cycles import (AvgFilter, Filter, GeneratorWord, Wheel, _as_tree,
                     _generator_cycle, _spun, _top_cell, admissible_sizes,
                     averaged_filter_cycle, parse_word, wheel_cycle, word_cycle)
from .homology import CertificateError
from .maps import comb, segment_chain, tree_labels


# ---------------------------------------------------------------------------
# word combinations


class WordCombination:
    """A formal rational combination of generator words; every value is
    converted to a Fraction on construction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms: Dict[GeneratorWord, Fraction] = {}
        if terms:
            for w, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[w] = c

    @classmethod
    def of(cls, word: GeneratorWord, coeff=1) -> "WordCombination":
        return cls({word: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items(), key=lambda t: str(t[0]))

    def __add__(self, other: "WordCombination") -> "WordCombination":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return WordCombination(out)

    def __sub__(self, other: "WordCombination") -> "WordCombination":
        return self + other.scale(-1)

    def scale(self, c) -> "WordCombination":
        c = Fraction(c)
        return WordCombination({w: v * c for w, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, WordCombination) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{w}" for w, c in self.items())

    def cycle(self, width: int) -> ChainVector:
        """The chain this combination represents; all words must share labels."""
        result = None
        for w, c in self.items():
            ch = word_cycle(w, width).scale(c)
            result = ch if result is None else result + ch
        if result is None:
            raise ValueError("cannot build the chain of an empty combination")
        return result


# ---------------------------------------------------------------------------
# R1: properization of wheels


def _narrow(c):
    """An integral coefficient as an int; any other stays a Fraction."""
    return c.numerator if c.denominator == 1 else c


def properize(wheel_or_tree) -> Dict[tuple, int]:
    """Express a wheel (tree or label sequence) in proper wheels, exactly.

    A wheel's one-block chain is a graded bracket of its labels, and the
    proper wheels are the left combs led by the top label.  Of the words
    in a comb's chain, only its own label tuple starts with the top label,
    with coefficient 1.  So the coefficient of a proper wheel is that of
    its own word in the wheel's chain, an int.  The claim that the wheel
    lies in the span of the proper wheels is checked on the chains: the
    combination must rebuild the wheel's chain, else CertificateError.
    """
    tree = _as_tree(wheel_or_tree)
    words = segment_chain(tree, None)
    top = max(tree_labels(tree))
    out = {w: c for w, c in sorted(words.items()) if w[0] == top}
    rebuilt: dict = {}
    for w, c in out.items():
        for v, d in segment_chain(comb(w), None).items():
            rebuilt[v] = rebuilt.get(v, 0) + c * d
    if {v: d for v, d in rebuilt.items() if d} != words:
        raise CertificateError(f"the wheel tree {tree} failed to properize")
    return out


# ---------------------------------------------------------------------------
# the action of relabeling


def _normalize_filter(wheels: Sequence[Wheel]) -> Tuple[AvgFilter, int]:
    """Rank-sort the wheels of a filter; returns it with the R3 sign."""
    wheels = tuple(wheels)
    src = tuple(range(len(wheels)))
    order = tuple(sorted(src, key=lambda i: wheels[i].rank_key()))
    sign = wsgn_pairs(src, order, lambda i: wheels[i].size)
    return AvgFilter(tuple(wheels[i] for i in order)), sign


def act(mapping: dict, x: Union[GeneratorWord, WordCombination],
        ) -> WordCombination:
    """Relabel a word (or combination) and renormalize its wheels.

    `mapping` sends old labels to new ones (a bijection on the word's
    labels; missing labels stay put).  Relabeled wheels are properized
    (R1), filters multilinearly expanded (R4) and rank-sorted with their
    sign (R3).  All three moves are exact, so the result represents the
    relabeled chain on the nose, and the factor shape of every word
    survives.
    """
    if isinstance(x, GeneratorWord):
        x = WordCombination.of(x)
    out: Dict[GeneratorWord, Union[int, Fraction]] = {}
    for word, coeff in x.items():
        expanded = [(_narrow(coeff), ())]
        for f in word.factors:
            grown = []
            if isinstance(f, Wheel):
                moved = tuple(mapping.get(a, a) for a in f.labels)
                for labels, c in properize(comb(moved)).items():
                    for base, fs in expanded:
                        grown.append((base * c, fs + (Wheel(labels),)))
            else:
                slot_options: List[List[Tuple[Wheel, Union[int, Fraction]]]] = []
                for w in f.wheels:
                    moved = tuple(mapping.get(a, a) for a in w.labels)
                    slot_options.append(
                        [(Wheel(labels), c) for labels, c in properize(comb(moved)).items()])
                for pick in itertools.product(*slot_options):
                    wheels = tuple(p[0] for p in pick)
                    nf, c = _normalize_filter(wheels)
                    for p in pick:
                        c *= p[1]
                    for base, fs in expanded:
                        grown.append((base * c, fs + (nf,)))
            expanded = grown
        for c, fs in expanded:
            if c:
                w2 = GeneratorWord(fs)
                out[w2] = out.get(w2, 0) + c
    return WordCombination(out)


# ---------------------------------------------------------------------------
# relation instances with witnesses


@dataclass
class RelationInstance:
    name: str
    params: dict
    difference: ChainVector
    witness: Optional[ChainVector]  # None: the relation is exact on chains
    coefficients: Optional[dict] = None

    def verified(self) -> bool:
        if self.witness is None:
            return self.difference.is_zero()
        return is_cycle(self.difference) and bounds(self.witness, self.difference)

    def __str__(self):
        kind = "exact" if self.witness is None else "boundary-witnessed"
        return f"{self.name} instance ({kind}): verified={self.verified()}"


def r1_instance(wheel_or_tree, width: int) -> RelationInstance:
    """An improper wheel equals its proper combination on the nose."""
    tree = _as_tree(wheel_or_tree)
    diff = wheel_cycle(tree, width)
    combo = properize(tree)
    for labels, c in combo.items():
        diff = diff - wheel_cycle(Wheel(labels), width).scale(c)
    return RelationInstance("R1", {"tree": tree}, diff, None,
                            {Wheel(l): c for l, c in combo.items()})


def r2_instance(w1: Wheel, w2: Wheel, width: int) -> RelationInstance:
    """W1|W2 = (-1)^{(n1-1)(n2-1)} W2|W1 when the sizes fit together."""
    n1, n2 = w1.size, w2.size
    if n1 + n2 > width:
        raise ValueError("the two wheels do not fit in one block at this width")
    sign = -1 if ((n1 - 1) * (n2 - 1)) % 2 else 1
    lhs = concat(wheel_cycle(w1, width), wheel_cycle(w2, width))
    rhs = concat(wheel_cycle(w2, width), wheel_cycle(w1, width)).scale(sign)
    diff = lhs - rhs
    # the witness merges the two wheels into one block, W1 first
    trees = (w1.tree(), w2.tree())
    witness = _spun(_top_cell(trees).scale(Fraction(-1 if n1 % 2 else 1)), trees, width)
    return RelationInstance("R2", {"w1": w1, "w2": w2, "width": width},
                            diff, witness)


def r3_instance(wheels: Sequence[Wheel], order: Sequence[int],
                width: int) -> RelationInstance:
    """Reordering the wheels of an averaged filter only changes the sign."""
    wheels = tuple(wheels)
    order = tuple(order)
    permuted = tuple(wheels[i] for i in order)
    sign = wsgn_pairs(tuple(range(len(wheels))), order, lambda i: wheels[i].size)
    diff = (averaged_filter_cycle(permuted, width)
            - averaged_filter_cycle(wheels, width).scale(sign))
    return RelationInstance("R3", {"wheels": wheels, "order": order}, diff, None)


def r4_instance(wheels: Sequence, slot: int, width: int) -> RelationInstance:
    """A filter with an improper wheel in one slot expands multilinearly."""
    trees = [_as_tree(w) for w in wheels]
    diff = averaged_filter_cycle(trees, width)
    for labels, c in properize(trees[slot]).items():
        replaced = list(trees)
        replaced[slot] = comb(labels)
        diff = diff - averaged_filter_cycle(replaced, width).scale(c)
    return RelationInstance("R4", {"wheels": tuple(trees), "slot": slot}, diff, None)


def _r5_admissible(sizes: Sequence[int], width: int) -> bool:
    """Whether the filter on all but any one of these wheels is admissible."""
    sizes = tuple(sizes)
    return all(admissible_sizes(sizes[:k] + sizes[k + 1:], width) for k in range(len(sizes)))


def r5_closed_form(sizes: Sequence[int]) -> Tuple[tuple, tuple]:
    """Coefficients of the filter Leibniz relation, all signs pinned.

    Returns (left, right): for wheels of these sizes,

        sum_k left[k] * W_k|AF_k + right[k] * AF_k|W_k

    is the boundary of the middle-face witness of r5_instance, where AF_k
    is the raw averaged filter on the other wheels.  On three wheels the
    witness is empty and the combination vanishes on the nose.

    The one-wheel faces of the top permutohedron cell dictate the signs:
    left[k] is the weighted sign of pulling wheel k to the front, and
    right[k] combines the face orientation (-1)^{total-n_k} with the sign
    of pushing wheel k to the back.  A wheel weighs its disk count, so
    only odd-size wheels see each other in the pulling signs.
    """
    sizes = tuple(sizes)
    total = sum(sizes)
    odd = [n % 2 for n in sizes]
    left, right = [], []
    for k in range(len(sizes)):
        front = (-1) ** (odd[k] * sum(odd[:k]))
        back = (-1) ** (odd[k] * sum(odd[k + 1:]))
        left.append(front)
        right.append(-back * (-1) ** ((total - sizes[k]) % 2))
    return tuple(left), tuple(right)


def r5_instance(wheels: Sequence[Wheel], width: int) -> RelationInstance:
    """The filter Leibniz relation on m+1 wheels, witnessed explicitly.

    The witness is the spin expansion of the block-averaged middle faces
    (both blocks holding at least two wheels) of the top permutohedron
    cell on the wheels.  Its boundary is exactly the r5_closed_form
    combination of the words W_k|AF_k and AF_k|W_k; on three wheels the
    witness is empty and the combination already vanishes as a chain.
    """
    wheels = tuple(wheels)
    m1 = len(wheels)
    if m1 < 3:
        raise ValueError("the relation needs at least three wheels")
    sizes = tuple(w.size for w in wheels)
    if not _r5_admissible(sizes, width):
        raise ValueError(f"wheel sizes {sizes} fail the (m-1)-fold sum bound "
                         f"at width {width}")
    trees = tuple(w.tree() for w in wheels)
    faces = boundary(_top_cell(trees))
    middle = {face: v for face, v in faces.coeffs.items() if min(map(len, face)) >= 2}
    witness = _spun(ChainVector(faces.spec, faces.degree, middle), trees, width, True)
    left, right = r5_closed_form(sizes)
    combination = ChainVector.zero(witness.spec, witness.degree - 1)
    coeffs = {}
    for k in range(m1):
        wk = wheel_cycle(wheels[k], width)
        # raw, also on two wheels, where the averaged filter is the filter
        afk = _generator_cycle(trees[:k] + trees[k + 1:], width, m1 > 3)
        combination = (combination + concat(wk, afk).scale(left[k])
                       + concat(afk, wk).scale(right[k]))
        coeffs[("left", k)] = Fraction(left[k])
        coeffs[("right", k)] = Fraction(right[k])
    return RelationInstance("R5", {"wheels": wheels, "width": width},
                            combination,
                            None if witness.is_zero() else witness, coeffs)


def relation_instance(name: str, width: int, **params) -> RelationInstance:
    """Uniform entry point for the five relation families."""
    name = name.upper()
    if name == "R1":
        return r1_instance(params["wheel"], width)
    if name == "R2":
        return r2_instance(params["w1"], params["w2"], width)
    if name == "R3":
        return r3_instance(params["wheels"], params["order"], width)
    if name == "R4":
        return r4_instance(params["wheels"], params["slot"], width)
    if name == "R5":
        return r5_instance(params["wheels"], width)
    raise ValueError(f"unknown relation {name!r}")


# ---------------------------------------------------------------------------
# normal-form reduction


def _check_generator_word(word: GeneratorWord, width: int):
    """Reject words that are not products of generators in normal form."""
    for f in word.factors:
        if isinstance(f, AvgFilter):
            if f.arity == 2:
                raise ValueError(
                    f"{f} has two wheels: rewrite it as ordered products of "
                    f"the wheels (the two-wheel filter is their commutator)")
            if not f.admissible(width):
                raise ValueError(f"{f} is inadmissible at width {width}")
            for w in f.wheels:
                if not w.is_proper():
                    raise ValueError(
                        f"wheel {w} inside {f} is improper; expand it with "
                        f"act() or properize() first")
            ranks = [w.rank_key() for w in f.wheels]
            if ranks != sorted(ranks):
                raise ValueError(
                    f"wheels of {f} are not in increasing rank; apply the "
                    f"reordering sign first (see r3_instance)")
        elif isinstance(f, Filter):
            raise ValueError(
                f"{f} is a plain filter; reduce() works over averaged filters")
        elif isinstance(f, Wheel):
            if f.size > width:
                raise ValueError(f"wheel {f} does not fit in width {width}")
            if not f.is_proper():
                raise ValueError(
                    f"wheel {f} is improper; expand it with act() or "
                    f"properize() first")
        else:
            raise TypeError(f"unknown factor {f!r}")


def _measure(word: GeneratorWord) -> tuple:
    """The termination measure: strictly drops under every rewrite step.

    Components, compared lexicographically:
      1. co-ranks of the bare wheels (how many wheels of the whole word
         outrank each bare wheel), sorted descending;
      2. the number of (bare wheel, filter strictly to its right) pairs;
      3. rank inversions among the bare wheels.
    R5 steps drop 1, or keep 1 and drop 2; R2 swaps keep both and drop 3;
    neither changes the number of bare wheels, the length of 1.  reduce()
    computes it once per queued word, rewrites words largest measure first,
    each once, and checks the drop from every rewritten word to each child.
    """
    ranks, bare, comp2 = [], [], 0
    for f in word.factors:
        if isinstance(f, Wheel):
            ranks.append(f.rank_key())
            bare.append(ranks[-1])
        else:
            ranks.extend(w.rank_key() for w in f.wheels)
            comp2 += len(bare)
    ranks.sort()
    comp1 = tuple(sorted((len(ranks) - bisect_right(ranks, rk) for rk in bare),
                         reverse=True))
    comp3 = sum(1 for ri, rj in itertools.combinations(bare, 2) if ri < rj)
    return (comp1, comp2, comp3)


def _heap_key(mu: tuple) -> tuple:
    """A min-heap key that pops larger measures first.  Negating the
    co-ranks reverses their order only between tuples of one length, which
    suffices: a rewrite keeps the number of bare wheels."""
    comp1, comp2, comp3 = mu
    return (tuple(-v for v in comp1), -comp2, -comp3)


def _first_violation(word: GeneratorWord, width: int) -> Optional[tuple]:
    """The first adjacent pair breaking the amw basis rules, as ("swap", i)
    before a wheel or ("push", i) before a filter; None for a normal form."""
    for i, (f, nxt) in enumerate(zip(word.factors, word.factors[1:])):
        if not _adjacency_ok(f, nxt, width, AMW):
            return ("swap" if isinstance(nxt, Wheel) else "push", i)
    return None


def _rewrite(word: GeneratorWord, coeff, width: int, spot: tuple,
             mu: tuple) -> List[Tuple[GeneratorWord, Union[int, Fraction], tuple]]:
    """One rewriting step on the violation `spot` of a word of measure `mu`.

    Returns (child, coefficient, measure of the child), having checked
    that every child's measure drops below `mu`.  The child's coefficient
    is `coeff` times one integer sign, so an int coefficient stays an int.
    """
    kind, i = spot
    out: List[Tuple[GeneratorWord, Union[int, Fraction]]] = []
    if kind == "swap":
        a, b = word.factors[i], word.factors[i + 1]
        sign = -1 if ((a.size - 1) * (b.size - 1)) % 2 else 1
        factors = word.factors[:i] + (b, a) + word.factors[i + 2:]
        out.append((GeneratorWord(factors), coeff * sign))
    else:
        w0 = word.factors[i]
        af = word.factors[i + 1]
        group = (w0,) + af.wheels
        left, right = r5_closed_form(tuple(w.size for w in group))
        if left[0] != 1:
            raise CertificateError(f"the closed form gives {word} the coefficient "
                                   f"{left[0]}, not 1")
        prefix, suffix = word.factors[:i], word.factors[i + 2:]
        total = w0.size + af.total
        # a trivial filter makes its terms boundaries
        rests = {k: _r5_rest(w0, af, k) for k, wk in enumerate(group)
                 if total - wk.size > width}
        sides = [("left", k, left[k]) for k in range(1, len(group)) if k in rests]
        sides += [("right", k, right[k]) for k in range(len(group)) if k in rests]
        for side, k, c in sides:
            nf, sign = rests[k]
            middle = (group[k], nf) if side == "left" else (nf, group[k])
            new = GeneratorWord(prefix + middle + suffix)
            out.append((new, coeff * (-c * sign)))
    children = []
    for new, c in out:
        nu = _measure(new)
        if not nu < mu:
            raise CertificateError(f"the termination measure failed to drop "
                                   f"from {word} to {new}")
        children.append((new, c, nu))
    return children


def _r5_rest(w0: Wheel, af: AvgFilter, k: int) -> Tuple[AvgFilter, int]:
    """The filter on the wheels of (w0,) + af.wheels but the k-th, rank-sorted,
    with its R3 sign: what _normalize_filter gives, read off af's order.

    Rest 0 is af itself.  Rest k >= 1 leaves out wheel k-1 of af and inserts
    w0 at its rank, passing the wheels that rank below it; the sign is -1
    exactly when w0 has odd size and passes an odd number of odd-size wheels.
    """
    if k == 0:
        return af, 1
    others = af.wheels[:k - 1] + af.wheels[k:]
    at = bisect_left(others, w0.rank_key(), key=Wheel.rank_key)
    passed = sum(w.size & 1 for w in others[:at])
    sign = -1 if w0.size & 1 and passed & 1 else 1
    return AvgFilter(others[:at] + (w0,) + others[at:]), sign


def reduce(x: Union[GeneratorWord, WordCombination, str], width: int,
           ) -> WordCombination:
    """Rewrite a combination of generator words into basis normal form.

    Words must be built from proper wheels and rank-sorted admissible
    averaged filters on three or more wheels (use act()/properize() for
    anything else).  Words containing a trivial filter vanish.  The result
    satisfies the basis conditions: adjacent bare wheels descend in rank
    unless their sizes overflow the width, and a bare wheel left of a
    filter outranks the filter's least wheel.

    Pending words wait on a heap, largest termination measure first (ties
    in queueing order).  Every child of a rewrite measures strictly less
    than its parent, so a word is popped only once all the words that
    produce it have been, with its coefficient complete: each word is
    rewritten at most once.

    Coefficients are carried as ints while integral (each rewrite
    multiplies by an integer sign), and converted to Fractions once, in
    the returned combination.
    """
    if isinstance(x, str):
        x = WordCombination.of(parse_word(x))
    elif isinstance(x, GeneratorWord):
        x = WordCombination.of(x)
    pending: Dict[GeneratorWord, Union[int, Fraction]] = {}
    heap: list = []
    tick = itertools.count()

    def queue(word: GeneratorWord, c, mu: tuple):
        if word in pending:
            pending[word] += c
        else:
            pending[word] = c
            heapq.heappush(heap, (_heap_key(mu), next(tick), word, mu))

    for word, c in x.terms.items():
        _check_generator_word(word, width)
        if any(isinstance(f, AvgFilter) and f.trivial(width) for f in word.factors):
            continue  # the word is a boundary
        queue(word, _narrow(c), _measure(word))
    done: Dict[GeneratorWord, Union[int, Fraction]] = {}
    while heap:
        _, _, word, mu = heapq.heappop(heap)
        coeff = pending.pop(word)
        if not coeff:
            continue
        spot = _first_violation(word, width)
        if spot is None:
            done[word] = coeff
            continue
        for new, c, nu in _rewrite(word, coeff, width, spot, mu):
            queue(new, c, nu)
    return WordCombination(done)


# ---------------------------------------------------------------------------
# representation stability parameters


@dataclass(frozen=True)
class StabilityParams:
    width: int
    order: int            # d: the order of the stability statement
    index: int            # the homological input (k for order 1, i above)
    b: int                # the slope bound
    fi_width: int         # the category width: FI for order 1, FIW(d) above
    generation_degree: int

    def describe(self) -> str:
        cat = "FI" if self.order == 1 else f"FIW({self.order})"
        return (f"b={self.b}, {cat}-width {self.fi_width}, "
                f"generation degree {self.generation_degree}")


def stability_params(k: int, width: int) -> StabilityParams:
    """First-order stability of degree-k homology at this width."""
    if width < 2 or k < 0:
        raise ValueError(f"stability needs width >= 2 and degree >= 0, not {width} and {k}")
    b = k // (width - 1)
    gen = 2 * k if width >= 3 else 3 * k
    return StabilityParams(width, 1, k, b, b + 1, gen)


def higher_stability_params(d: int, i: int, width: int) -> StabilityParams:
    """Order-d stability for the d-th quotient filtration stage."""
    if not 1 <= d <= width // 2 or i < 0:
        raise ValueError(f"order {d} at degree {i} is out of range at width {width}")
    b = (d * i) // (width - d)
    gen = (d + 1) * i if width >= 2 * d + 1 else (d + 1) * i + d
    return StabilityParams(width, d, i, b, b + 1, gen)


def generation_check(k: int, width: int) -> Tuple[int, bool]:
    """Finite generation in the FI direction, checked on the basis.

    Returns (bound, ok): one disk past the bound, every basis word of
    degree k contains a bare one-disk wheel, so the class is induced.
    """
    bound = stability_params(k, width).generation_degree
    words = enumerate_basis(bound + 1, width, k, AMW)
    ok = all(any(isinstance(f, Wheel) and f.size == 1 for f in w.factors)
             for w in words)
    return bound, ok


def quotient_reduce(x, d: int, width: int) -> WordCombination:
    """Normal form in the quotient killing bare wheels on up to d disks."""
    reduced = reduce(x, width)
    if d <= 0:
        return reduced
    kept = {w: c for w, c in reduced.terms.items()
            if not any(isinstance(f, Wheel) and f.size <= d for f in w.factors)}
    return WordCombination(kept)


def count_barriers(word: GeneratorWord, d: int, width: int) -> int:
    """Factors blocking disks from passing: big wheels and all filters."""
    n = 0
    for f in word.factors:
        if isinstance(f, AvgFilter):
            n += 1
        elif f.size >= width + 1 - d:
            n += 1
    return n


def barrier_decompose(x: Union[WordCombination, GeneratorWord], d: int,
                      width: int) -> Dict[int, WordCombination]:
    """Split a reduced combination by the number of barrier factors."""
    if isinstance(x, GeneratorWord):
        x = WordCombination.of(x)
    out: Dict[int, Dict[GeneratorWord, Fraction]] = {}
    for w, c in x.items():
        k = count_barriers(w, d, width)
        out.setdefault(k, {})[w] = c
    return {k: WordCombination(v) for k, v in sorted(out.items())}

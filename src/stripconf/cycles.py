"""Generator cycles: wheels, filters, averaged-filters, and their products.

There is one construction: a permutohedron chain on wheel positions,
taken into the ordered complex, with every position spun out along its
wheel's split tree (`maps.substitute`).  It runs once per shape, a word
relabeled 1, 2, ... in order of first appearance, whose template (its
factors' cycles concatenated, `_shape_cycle`) each word relabels.  That is
exact: boundary signs read positions and weight parities, never labels.

A wheel is the top cell on one position spun out by a split tree over
its disk labels (`maps` holds the spin sign).  The proper wheel
W(i1,...,in) is the left comb peeling the last entry at every step, so
for example W(2,1) is the chain `2 1` + `1 2`.

A filter on wheels W1,...,Wm is the boundary Z of the top permutohedron
cell on the wheel positions (position p weighted by the disk count of
W_p), taken through the identity inclusion and spun out to disks; the
averaged filter takes Z through the block-averaging map q instead.  The
faces of Z whose blocks both hold two or more positions, averaged and
spun the same way, give the witness of the filter Leibniz relation (R5
in algebra), and the top cell on two positions gives the witness of R2.
On two wheels the filter is shown in the display form

    F(W1, W2) = W1|W2 + (-1)^{(n1-1)(n2-1)+1} W2|W1,

which is (-1)^{n1} times the spun boundary, so that is negated when the
first wheel has odd size.  The averaged filter on two wheels equals the
filter.  A filter is admissible at width w when every sum of all-but-one
wheel sizes is at most w (`admissible_sizes`), and trivial exactly when
the total size is at most w.  Every template, and every chain returned, is
checked to be a cycle; a failure raises CertificateError.

Generator words (concatenations of proper wheels and averaged filters) are
written `W(3,1)|AF(W(2),W(5,4))`; whitespace is ignored.  Wheels, filters
and words are frozen, slotted dataclasses that fix at construction their
hash (that of the tuple of their one field, as a generated hash would be),
a wheel's size and rank, and a filter's sorted labels, so a dict or heap
lookup never rehashes the factors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Optional, Sequence

from .cells import cell_complex, permutohedron
from .chains import ChainVector, boundary, concat_all, is_cycle
from .homology import CertificateError
from .maps import (Leaf, Node, WheelTree, averaged_inclusion_q, comb,
                   include_permutohedron, substitute, tree_labels, tree_weight)


# ---------------------------------------------------------------------------
# word-level factors


@dataclass(frozen=True, slots=True)
class Wheel:
    """A wheel presented by its label sequence; proper iff largest label first."""

    labels: tuple
    # derived from the labels once, so left out of eq, hash and repr
    top: int = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)
    _rank: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.labels:
            raise ValueError("empty wheel")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("wheel labels must be distinct")
        top, size = max(self.labels), len(self.labels)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_rank", (size, top))
        object.__setattr__(self, "_hash", hash((self.labels,)))

    def __hash__(self):
        return self._hash

    @property
    def degree(self) -> int:
        return self.size - 1

    def is_proper(self) -> bool:
        return self.labels[0] == self.top

    def tree(self) -> WheelTree:
        return comb(self.labels)

    def rank_key(self) -> tuple:
        """More disks ranks higher; ties broken by larger top label."""
        return self._rank

    def __str__(self):
        return "W(" + ",".join(str(a) for a in self.labels) + ")"


def admissible_sizes(sizes: Sequence[int], width: Optional[int]) -> bool:
    """Whether a filter on wheels of these sizes is admissible: every sum of
    all but one size fits the width (None: unbounded)."""
    total = sum(sizes)
    return width is None or all(total - n <= width for n in sizes)


@dataclass(frozen=True, slots=True)
class Filter:
    wheels: tuple
    # derived from the wheels once, so left out of eq, hash and repr
    _labels: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.wheels) < 2:
            raise ValueError("a filter needs at least two wheels")
        flat = [a for w in self.wheels for a in w.labels]
        if len(set(flat)) != len(flat):
            raise ValueError("filter wheels must have disjoint labels")
        object.__setattr__(self, "_labels", tuple(sorted(flat)))
        object.__setattr__(self, "_hash", hash((self.wheels,)))

    def __hash__(self):
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.wheels)

    @property
    def sizes(self) -> tuple:
        return tuple(w.size for w in self.wheels)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @property
    def degree(self) -> int:
        return self.total - 2

    def least_wheel(self) -> Wheel:
        return min(self.wheels, key=Wheel.rank_key)

    def admissible(self, width: int) -> bool:
        return admissible_sizes(self.sizes, width)

    def trivial(self, width: int) -> bool:
        return self.total <= width

    def labels(self) -> tuple:
        return self._labels

    def __str__(self):
        return "F(" + ",".join(str(w) for w in self.wheels) + ")"


@dataclass(frozen=True, slots=True)
class AvgFilter(Filter):
    # stated here, or the dataclass would generate one that rehashes the wheels
    __hash__ = Filter.__hash__

    def __str__(self):
        return "AF(" + ",".join(str(w) for w in self.wheels) + ")"


@dataclass(frozen=True, slots=True)
class GeneratorWord:
    """Concatenation of proper wheels and averaged filters, left to right."""

    factors: tuple
    # derived from the factors once, so left out of eq, hash and repr
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        flat = self._flat_labels()
        if len(set(flat)) != len(flat):
            raise ValueError("word factors must have disjoint labels")
        object.__setattr__(self, "_hash", hash((self.factors,)))

    def __hash__(self):
        return self._hash

    def _flat_labels(self) -> list:
        out = []
        for f in self.factors:
            out.extend(f.labels if isinstance(f, Wheel) else f.labels())
        return out

    def labels(self) -> tuple:
        return tuple(sorted(self._flat_labels()))

    def degree(self) -> int:
        return sum(f.degree for f in self.factors)

    def __str__(self):
        return "|".join(str(f) for f in self.factors) if self.factors else "1"


def _as_tree(w) -> WheelTree:
    if isinstance(w, (Leaf, Node)):
        return w
    if isinstance(w, Wheel):
        return comb(w.labels)
    return comb(tuple(w))


# ---------------------------------------------------------------------------
# cycle construction


def _shape_of(tree) -> tuple:
    """A split tree (or a wheel's comb) unlabeled: () a leaf, (left, right) a node."""
    if isinstance(tree, Wheel):
        return reduce(lambda shape, _: (shape, ()), range(tree.size - 1), ())
    return () if isinstance(tree, Leaf) else (_shape_of(tree.left), _shape_of(tree.right))


def _grown(shape: tuple, ids) -> WheelTree:
    """The tree of a shape, its leaves labeled left to right from the iterator."""
    return Node(_grown(shape[0], ids), _grown(shape[1], ids)) if shape else Leaf(next(ids))


@lru_cache(maxsize=8192)
def _shape_cycle(shape: tuple, width: Optional[int], weights: Optional[tuple]) -> ChainVector:
    """The checked template of a shape of factors (tree shapes, averaged, sign):
    a raw generator for one factor of sign 1, else the factors' signed product."""
    if len(shape) == 1 and shape[0][2] == 1:
        shapes, averaged, _ = shape[0]
        ids = itertools.count(1)
        trees = tuple(_grown(s, ids) for s in shapes)
        sizes = tuple(map(tree_weight, trees))
        if not admissible_sizes(sizes, width):
            raise ValueError(f"inadmissible filter: wheel sizes {sizes} at width {width}")
        top = _top_cell(trees)
        chain = top if len(trees) == 1 else boundary(top)
        return _checked_cycle(_spun(chain, trees, width, averaged, weights))
    chains, start, sign = [], 0, 1
    for shapes, averaged, s in shape:
        part = _shape_cycle(((shapes, averaged, 1),), width, None)
        chains.append(_relabeled(part, range(start + 1, start + part.spec.n + 1)))
        start, sign = start + part.spec.n, sign * s
    return _checked_cycle(concat_all(chains, width).scale(sign))


def _relabeled(chain: ChainVector, labels) -> ChainVector:
    """A chain on 1..n with label i renamed labels[i - 1], weight and all."""
    name = dict(zip(chain.spec.labels, labels))
    spec = cell_complex(name.values(), chain.spec.width,
                        {name[a]: w for a, w in chain.spec.weight_of.items()})
    blocks = {b: tuple([name[a] for a in b])
              for b in dict.fromkeys(itertools.chain.from_iterable(chain.coeffs))}
    return ChainVector(spec, chain.degree, {tuple(map(blocks.__getitem__, c)): v
                                            for c, v in chain.coeffs.items()})


def _generator_cycle(trees: tuple, width: Optional[int], averaged: bool,
                     weights: Optional[tuple] = None) -> ChainVector:
    """The spun top cell on one tree (a wheel), or the spun boundary of the
    top cell on two or more admissible trees (a raw filter, through q when
    `averaged`), weighed in the trees' label order: its template, relabeled."""
    shape = ((tuple(map(_shape_of, trees)), averaged, 1),)
    labels = tuple(a for t in trees for a in tree_labels(t))
    size = sum(weights) if weights else len(labels)
    if len(trees) == 1 and width is not None and size > width:
        raise ValueError(f"block {labels} exceeds width {width}")
    return _checked_cycle(_relabeled(_shape_cycle(shape, width, weights), labels))


def wheel_cycle(wheel, width: Optional[int], weights: Optional[dict] = None) -> ChainVector:
    """The wheel cycle of a split tree (or proper label sequence) at this width."""
    tree = _as_tree(wheel)
    wt = None if weights is None else tuple(weights[a] for a in tree_labels(tree))
    return _generator_cycle((tree,), width, False, wt)


def _checked_cycle(chain: ChainVector) -> ChainVector:
    """The chain itself, once its boundary is checked to vanish."""
    if not is_cycle(chain):
        raise CertificateError(f"a generator chain in degree {chain.degree} of "
                               f"{chain.spec.describe()} is not a cycle")
    return chain


def _top_cell(trees: tuple) -> ChainVector:
    """The top cell of the permutohedron on wheel positions 1..m, position
    p weighing the disk count of the p-th tree."""
    m = len(trees)
    spec = permutohedron(m, None, tuple(map(tree_weight, trees)))
    return ChainVector(spec, m - 1, {(spec.labels,): 1})


def _spun(chain: ChainVector, trees: tuple, width: Optional[int],
          averaged: bool = False, weights: Optional[tuple] = None) -> ChainVector:
    """A permutohedron chain on wheel positions, spun out to disks.

    The chain goes into the ordered complex through the identity
    inclusion, or through the block-averaging map q when `averaged`, and
    position p is then spun out along the p-th tree.  `weights` weigh the
    disks in ascending label order (default: unit), and a block of the
    result that does not fit the width raises ValueError.
    """
    include = averaged_inclusion_q if averaged else include_permutohedron
    labels = tuple(sorted(a for t in trees for a in tree_labels(t)))
    return substitute(include(chain), dict(enumerate(trees, 1)),
                      cell_complex(labels, width, weights))


def _filter_trees(wheels: Sequence) -> tuple:
    trees = tuple(_as_tree(w) for w in wheels)
    if len(trees) < 2:
        raise ValueError("a filter needs at least two wheels")
    return trees


def filter_cycle(wheels: Sequence, width: Optional[int] = None) -> ChainVector:
    """Filter cycle on a sequence of wheels, trees or label tuples."""
    trees = _filter_trees(wheels)
    chain = _generator_cycle(trees, width, False)
    if len(trees) == 2 and tree_weight(trees[0]) % 2:
        return -chain  # the display form on two wheels
    return chain


def averaged_filter_cycle(wheels: Sequence, width: Optional[int] = None) -> ChainVector:
    """Averaged filter cycle on a sequence of wheels, trees or label tuples."""
    trees = _filter_trees(wheels)
    # the averaged filter on two wheels is the filter
    return filter_cycle(trees, width) if len(trees) == 2 else _generator_cycle(trees, width, True)


def word_cycle(word: GeneratorWord, width: Optional[int]) -> ChainVector:
    """Concatenation of the factor cycles, left to right; empty word gives the
    unit: its shape's template, relabeled and checked."""
    shape, labels = [], []
    for f in word.factors:
        if not isinstance(f, (Wheel, Filter)):
            raise TypeError(f"unknown word factor {f!r}")
        if isinstance(f, Wheel) and width is not None and f.size > width:
            raise ValueError(f"block {f.labels} exceeds width {width}")
        wheels = (f,) if isinstance(f, Wheel) else f.wheels
        # the averaged filter on two wheels is the filter, in its display form
        shape.append((tuple(map(_shape_of, wheels)), len(wheels) > 2 and isinstance(f, AvgFilter),
                      -1 if len(wheels) == 2 and wheels[0].size % 2 else 1))
        labels.extend(a for w in wheels for a in w.labels)
    return _checked_cycle(_relabeled(_shape_cycle(tuple(shape), width, None), labels))


# ---------------------------------------------------------------------------
# word grammar


class WordSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_word(text: str) -> GeneratorWord:
    """Parse `W(3,1)|AF(W(2),W(5,4))`; whitespace-insensitive."""
    compact = "".join(text.split())
    if not compact:
        return GeneratorWord(())
    pos = 0
    factors = []

    def expect(tok: str):
        nonlocal pos
        if not compact.startswith(tok, pos):
            raise WordSyntaxError(f"expected {tok!r}", pos)
        pos += len(tok)

    def parse_int() -> int:
        nonlocal pos
        start = pos
        while pos < len(compact) and compact[pos].isdigit():
            pos += 1
        if start == pos:
            raise WordSyntaxError("expected a label", pos)
        return int(compact[start:pos])

    def parse_wheel() -> Wheel:
        expect("W(")
        labels = [parse_int()]
        while pos < len(compact) and compact[pos] == ",":
            expect(",")
            labels.append(parse_int())
        expect(")")
        return Wheel(tuple(labels))

    while True:
        if compact.startswith("AF(", pos):
            start = pos
            expect("AF(")
            wheels = [parse_wheel()]
            while pos < len(compact) and compact[pos] == ",":
                expect(",")
                wheels.append(parse_wheel())
            expect(")")
            try:
                factors.append(AvgFilter(tuple(wheels)))
            except ValueError as e:
                raise WordSyntaxError(str(e), start)
        elif compact.startswith("W(", pos):
            factors.append(parse_wheel())
        else:
            raise WordSyntaxError("expected W(...) or AF(...)", pos)
        if pos == len(compact):
            break
        expect("|")
    try:
        return GeneratorWord(tuple(factors))
    except ValueError as e:
        raise WordSyntaxError(str(e), 0)


def format_word(word: GeneratorWord) -> str:
    return str(word)

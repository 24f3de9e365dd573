"""Cells of the strip complexes.

Two families of complexes share one enumeration loop:

* ordered-block complexes cell(A, W, w): a cell is a sequence of bars
  splitting an ordering of the label set A into nonempty blocks, every
  block carrying total weight at most w;
* weighted permutohedra P(A, W, w): the same data with the order inside
  each block forgotten (blocks are stored ascending, the block sequence
  still matters).

Labels are positive integers (arbitrary, not necessarily 1..n, so that
concatenation of disjoint configurations needs no relabeling).  Weights
are positive integers.  A cell is represented as a tuple of tuples of
labels, e.g. ((2, 4), (3, 5, 1)) for the symbol `2 4|3 5 1`.

The cells of one dimension are listed in canonical order: block sizes,
then flattened labels.  That is the order of a loop over compositions of
n (the block sizes) and, inside it, over permutations of the labels
(ordered complexes) or over lex-ordered combinations filling one block
after another (permutohedra), so enumeration needs no sort.  The empty
label set has one 0-cell, ().

A spec carries its label -> weight dict (`weight_of`), built once when the
spec is made, so weights are looked up without hashing the spec.  Signs
see weights only through their parities: `wsgn` is the sign of the
permutation restricted to odd-weight entries, and the boundary operator
(chains.py) reads its split signs from one table per pattern of weight
parities along a block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional, Sequence

CellSym = tuple

_INT64_MAX = 2**63 - 1

ORDERED = "cell"
PERMUTOHEDRON = "perm"

@dataclass(frozen=True)
class ComplexSpec:
    """A chain-complex universe: label set, weights, width, block-order kind."""

    kind: str
    labels: tuple
    weights: tuple
    width: Optional[int]
    # label -> weight, derived from the fields above once, so left out of eq,
    # hash and repr: sign and width tests never hash the spec
    weight_of: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (ORDERED, PERMUTOHEDRON):
            raise ValueError(f"unknown complex kind {self.kind!r}")
        if tuple(sorted(self.labels)) != self.labels:
            raise ValueError("labels must be sorted")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        if len(self.weights) != len(self.labels):
            raise ValueError("weights must align with labels")
        for a in self.labels:
            if isinstance(a, int) and not (1 <= a <= _INT64_MAX):
                raise ValueError(f"label {a} out of range")
        for w in self.weights:
            if not (1 <= w <= _INT64_MAX):
                raise ValueError(f"weight {w} out of range")
        if self.width is not None and not (1 <= self.width <= _INT64_MAX):
            raise ValueError(f"width {self.width} out of range")
        object.__setattr__(self, "weight_of", dict(zip(self.labels, self.weights)))

    @property
    def n(self) -> int:
        return len(self.labels)

    def weight(self, label) -> int:
        return self.weight_of[label]

    def total_weight(self) -> int:
        return sum(self.weights)

    def top_degree(self) -> int:
        """Largest topological dimension with any cells (n - min block count).

        Returns -1 when no admissible cell exists (a single weight already
        exceeds the width).
        """
        if self.n == 0:
            return 0
        if self.width is None:
            return self.n - 1
        if max(self.weights) > self.width:
            return -1
        blocks = _min_blocks(tuple(sorted(self.weights, reverse=True)), self.width)
        return self.n - blocks

    def describe(self) -> str:
        ws = " ".join(f"{a}:{w}" for a, w in zip(self.labels, self.weights))
        width = "inf" if self.width is None else self.width
        return f"{self.kind}({ws}; w={width})"


def _min_blocks(weights_desc: tuple, width: int) -> int:
    """Exact minimum number of width-w blocks covering these weights.

    Branch and bound: the heaviest weight left opens a block together with
    any fitting choice of the rest.  A choice size whose lightest entries
    already overflow is skipped whole, equal choices of values are tried
    once, and the search stops at the first packing that meets the floor
    ceil(sum / width), so it is quick whenever a tight packing exists.
    """
    floor = max(1, -(-sum(weights_desc) // width))
    best = len(weights_desc)

    def search(remaining: tuple, used: int):
        nonlocal best
        if used + -(-sum(remaining) // width) >= best:
            return
        if not remaining:
            best = used
            return
        head, rest = remaining[0], remaining[1:]
        indices = range(len(rest))
        for r in range(len(rest), -1, -1):
            if head + sum(rest[len(rest) - r:]) > width:
                continue  # even the r lightest entries overflow
            tried = set()
            for combo in itertools.combinations(indices, r):
                chosen = tuple(rest[i] for i in combo)
                if chosen in tried or head + sum(chosen) > width:
                    continue
                tried.add(chosen)
                search(tuple(rest[i] for i in indices if i not in combo), used + 1)
                if best == floor:
                    return

    search(weights_desc, 0)
    return best


def cell_complex(labels, width: Optional[int], weights=None) -> ComplexSpec:
    """Ordered-block complex cell(A, W, w).  `labels` may be an int n for 1..n."""
    labels, weights = _normalize(labels, weights)
    return ComplexSpec(ORDERED, labels, weights, width)


def permutohedron(labels, width: Optional[int], weights=None) -> ComplexSpec:
    """Weighted permutohedron P(A, W, w) with blocks stored ascending."""
    labels, weights = _normalize(labels, weights)
    return ComplexSpec(PERMUTOHEDRON, labels, weights, width)


def _normalize(labels, weights):
    if isinstance(labels, int):
        if labels < 0:
            raise ValueError(f"label count {labels} is negative")
        labels = tuple(range(1, labels + 1))
    else:
        labels = tuple(sorted(labels))
    if weights is None:
        weights = (1,) * len(labels)
    elif isinstance(weights, dict):
        weights = tuple(weights[a] for a in labels)
    else:
        weights = tuple(weights)
    return labels, weights


# ---------------------------------------------------------------------------
# dimensions and signs


def wlength(block: Sequence, spec: ComplexSpec) -> int:
    return sum(spec.weight_of[a] for a in block)


def top_dim(cell: CellSym) -> int:
    """Topological dimension: #labels - #blocks.  The homological grading."""
    return sum(len(b) - 1 for b in cell)


def wsgn_pairs(source: Sequence, target: Sequence, weight_of) -> int:
    """Weighted sign of the permutation rearranging `source` into `target`.

    The sign of a transposition of elements a, b is (-1)^{w_a w_b}, so the
    full sign is the parity of sum w_a*w_b over pairs that invert.  Only
    odd-weight elements contribute, which makes this the classical sign of
    the permutation restricted to odd-weight entries.  Both sequences must
    hold the same distinct entries; otherwise this raises ValueError.
    """
    pos = {a: i for i, a in enumerate(target)}
    if not (len(source) == len(target) == len(pos) and pos.keys() == set(source)):
        raise ValueError("wsgn needs two arrangements of the same distinct entries")
    odd = [pos[a] for a in source if weight_of(a) % 2 == 1]
    sign = 1
    for i in range(len(odd)):
        for j in range(i + 1, len(odd)):
            if odd[i] > odd[j]:
                sign = -sign
    return sign


def wsgn(source: Sequence, target: Sequence, spec: ComplexSpec) -> int:
    return wsgn_pairs(source, target, spec.weight)


# ---------------------------------------------------------------------------
# enumeration


def compositions(n: int, parts: int, cap: int) -> Iterator[tuple]:
    """Compositions of n into `parts` parts, each between 1 and cap, in lex order."""
    if parts <= 0:
        if parts == 0 and n == 0:
            yield ()
        return
    for c in range(1, min(cap, n) + 1):
        for rest in compositions(n - c, parts - 1, cap):
            yield (c,) + rest


def canonical_key(cell: CellSym):
    """Deterministic total order on cells: block sizes, then flattened labels."""
    return tuple(map(len, cell)), tuple(itertools.chain.from_iterable(cell))


def _ascending_fills(labels: tuple, sizes: tuple) -> list:
    """Every arrangement of `labels` into ascending blocks of these sizes,
    in canonical order: each block is a lex-ordered combination of the
    labels still free."""
    if not sizes:
        return [()]
    fills = [((), labels)]
    for size in sizes[:-1]:
        # the complements of the lex-ordered size-k combinations of a sorted
        # tuple are its (len - k)-combinations in reverse lex order
        fills = [(cell + (block,), rest) for cell, free in fills
                 for block, rest in zip(itertools.combinations(free, size), reversed(
                     list(itertools.combinations(free, len(free) - size))))]
    # the last block takes every label left, already ascending
    return [cell + (free,) for cell, free in fills]


@lru_cache(maxsize=512)
def enumerate_cells(spec: ComplexSpec, dim: int) -> tuple:
    """Admissible cells of topological dimension `dim` in canonical order.

    The loops run in that order: compositions of n into n - dim block sizes
    in lex order, and for each the arrangements of the labels into blocks
    of those sizes in lex order of their flattened labels.  An ordered
    complex cuts every permutation of the sorted labels into blocks; a
    permutohedron fills each block with a combination of the labels still
    free.  A cell is skipped when a block weighs more than the width.  The
    cells therefore come out sorted and distinct.  The empty complex has
    the one 0-cell ().
    """
    n, width, weight_of = spec.n, spec.width, spec.weight_of
    # a unit-weight block weighs its size, which the composition already caps
    weighed = width is not None and spec.total_weight() > n
    cells = []
    for sizes in compositions(n, n - dim, n if width is None else width):
        if spec.kind == PERMUTOHEDRON:
            fills = _ascending_fills(spec.labels, sizes)
        else:
            ends = list(itertools.accumulate(sizes))
            cuts = list(zip([0] + ends, ends))
            fills = (tuple([perm[s:e] for s, e in cuts])
                     for perm in itertools.permutations(spec.labels))
        if weighed:
            fills = [cell for cell in fills
                     if all(sum(map(weight_of.__getitem__, b)) <= width for b in cell)]
        cells.extend(fills)
    return tuple(cells)


@lru_cache(maxsize=512)
def cell_index(spec: ComplexSpec, dim: int) -> dict:
    return {c: i for i, c in enumerate(enumerate_cells(spec, dim))}


def validate_cell(cell: CellSym, spec: ComplexSpec) -> None:
    seen = []
    for block in cell:
        if not block:
            raise ValueError("empty block")
        seen.extend(block)
    if sorted(seen) != list(spec.labels):
        raise ValueError("cell labels do not match the complex label set")
    for block in cell:
        if spec.width is not None and wlength(block, spec) > spec.width:
            raise ValueError(f"block {block} exceeds width {spec.width}")
        if spec.kind == PERMUTOHEDRON and tuple(sorted(block)) != block:
            raise ValueError(f"permutohedron block {block} not ascending")


# ---------------------------------------------------------------------------
# wheel decompositions of permutations


@dataclass(frozen=True)
class WheelDecomposition:
    """Maximal axle-led segments of a permutation.

    An axle is an entry larger than everything before it; each wheel runs
    from one axle up to (not including) the next.  Concatenating the wheels
    in order recovers the permutation, and axles increase left to right.
    """

    wheels: tuple          # tuple of label tuples, in permutation order
    weights: tuple         # total entry weight per wheel
    superlabels: tuple     # one label per wheel (its axle), ascending

    @property
    def count(self) -> int:
        return len(self.wheels)

    def shift(self) -> int:
        """Degree shift of this decomposition: #labels - #wheels."""
        return sum(len(w) for w in self.wheels) - len(self.wheels)


def wheel_decomposition(perm: Sequence, weight_of=None) -> WheelDecomposition:
    perm = tuple(perm)
    if not perm:
        raise ValueError("empty permutation")
    if weight_of is None:
        weight_of = lambda a: 1
    wheels = []
    start = 0
    best = perm[0]
    for i, a in enumerate(perm[1:], start=1):
        if a > best:
            wheels.append(perm[start:i])
            start, best = i, a
    wheels.append(perm[start:])
    weights = tuple(sum(weight_of(a) for a in w) for w in wheels)
    axles = tuple(w[0] for w in wheels)
    if axles != tuple(sorted(axles)):
        raise ValueError(f"the axles {axles} of {perm} do not increase: "
                         "its entries are not totally ordered")
    return WheelDecomposition(tuple(wheels), weights, axles)


# ---------------------------------------------------------------------------
# text syntax: blocks separated by `|`, labels space-separated


def parse_cell(text: str) -> CellSym:
    blocks = []
    for chunk in text.split("|"):
        entries = chunk.split()
        if not entries:
            raise ValueError(f"empty block in cell {text!r}")
        blocks.append(tuple(int(e) for e in entries))
    return tuple(blocks)


def format_cell(cell: CellSym) -> str:
    return "|".join(" ".join(str(a) for a in b) for b in cell)


def parse_weighted_set(text: str) -> tuple:
    """`label:weight` pairs, weight defaulting to 1.  Returns (labels, weights)."""
    labels, weights = [], {}
    for chunk in text.split():
        if ":" in chunk:
            a, w = chunk.split(":")
            label, weight = int(a), int(w)
        else:
            label, weight = int(chunk), 1
        if label in weights:
            raise ValueError(f"duplicate label {label}")
        labels.append(label)
        weights[label] = weight
    labels.sort()
    return tuple(labels), tuple(weights[a] for a in labels)

"""Rational cellular chains and the weighted boundary operator.

The boundary of a single block b splits it into an ordered pair of
complementary nonempty subsequences (e1, e2), with coefficient

    (-1)^{wlength(e1)} * wsgn(b -> e1 e2),

and extends to several blocks by the Leibniz rule with Koszul sign
(-1)^{sum of wdim of the blocks to the left}, where a block's wdim is its
wlength - 1.  The facets of a cell are listed by block, then split size,
then the lex order of e1's positions in the block.  The same formula
serves the ordered complexes and the weighted permutohedra: subsequences
of an ascending block are ascending, so no second convention is needed.
These conventions, with the cell order of `cells`, are pinned by a digest
of boundary matrices in the tests, so a change of convention has to be
made on purpose.

Both signs depend on the weights only through their parities: `_splits`
lists a block's split signs from the tuple of its entries' weight
parities.  The Koszul sign flips after each block whose wlength is even,
i.e. which holds an even number of odd weights.

So a block's splits depend only on its labels and on which of them have
even weight, not on the kind or width of the complex.  One `_SplitTable`
per parity class, `_split_table(even)` for the set `even` of labels of even
weight, maps each block to its (e1, e2) pairs with signs and its Koszul
flip, filled once per block per process; every unit-weight spec shares
`_split_table(frozenset())`.  Each facet is head + (e1, e2) + tail and is
made per call: the tables hold splits of blocks, never facets of cells.
`boundary_matrix` keeps its own loop over the table, which writes row
indices in place; it is tied to the chain-level loop by property tests,
and `verify_boundary_squared` checks d^2 = 0 on both.

Chain-level boundaries sum in ints.  A chain is scaled by the least common
multiple `den` of its coefficients' denominators, so each facet sum of
d(den * chain) is an int; a chain of ints is used as it is.  `boundary`
converts only the nonzero sums back: an int where only ints reached the
facet, `Fraction(sum, den)` where a Fraction did, which is what summing in
the coefficients' own types gives.  `is_cycle` tests the int sums for zero
and builds no chain, and `bounds(witness, chain)` compares
d(den * witness) with den * chain in ints, `den` taken over both.  Every
facet of every cell is still summed exactly; only the number type changes.

`morse_matrix` gives the differential of the Morse complex of one acyclic
matching (Forman, *Morse theory for cell complexes*, 1998; Skoldberg,
*Morse theory from an algebraic viewpoint*, 2006): the least label a is
split off to the left of its block, or merged into the block after it.
Its critical cells come from the cells on the other labels, so neither the
full complex nor `linalg` is needed, and its entries from the same split
tables.  `homology` ranks weighted complexes and permutohedra on it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import itemgetter
from typing import Iterable, Optional

from .cells import (
    ORDERED,
    ComplexSpec,
    canonical_key,
    cell_complex,
    cell_index,
    enumerate_cells,
    format_cell,
    permutohedron,
    top_dim,
    validate_cell,
)


class ChainVector:
    """Sparse rational chain in a fixed complex and topological degree."""

    __slots__ = ("spec", "degree", "coeffs")

    def __init__(self, spec: ComplexSpec, degree: int, coeffs: Optional[dict] = None,
                 validate: bool = False):
        self.spec = spec
        self.degree = degree
        self.coeffs = {c: v for c, v in (coeffs or {}).items() if v != 0}
        if validate:
            for c in self.coeffs:
                validate_cell(c, spec)
                if top_dim(c) != degree:
                    raise ValueError(
                        f"cell {format_cell(c)} has dimension {top_dim(c)}, chain degree {degree}")

    @classmethod
    def zero(cls, spec: ComplexSpec, degree: int) -> "ChainVector":
        return cls(spec, degree, {})

    @classmethod
    def of_cell(cls, spec: ComplexSpec, cell, coeff=1) -> "ChainVector":
        return cls(spec, top_dim(cell), {tuple(map(tuple, cell)): coeff}, validate=True)

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """(cell, coefficient) pairs in canonical cell order."""
        return sorted(self.coeffs.items(), key=lambda kv: canonical_key(kv[0]))

    def __add__(self, other: "ChainVector") -> "ChainVector":
        self._check(other)
        out = dict(self.coeffs)
        for c, v in other.coeffs.items():
            out[c] = out.get(c, 0) + v
        return ChainVector(self.spec, self.degree, out)

    def __sub__(self, other: "ChainVector") -> "ChainVector":
        return self + (-other)

    def __neg__(self) -> "ChainVector":
        return ChainVector(self.spec, self.degree, {c: -v for c, v in self.coeffs.items()})

    def scale(self, s) -> "ChainVector":
        if s == 0:
            return ChainVector.zero(self.spec, self.degree)
        return ChainVector(self.spec, self.degree, {c: v * s for c, v in self.coeffs.items()})

    __mul__ = scale
    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return (isinstance(other, ChainVector) and self.spec == other.spec
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self):
        raise TypeError("chains are not hashable")

    def _check(self, other: "ChainVector") -> None:
        if self.spec != other.spec or self.degree != other.degree:
            raise ValueError("chains live in different complexes or degrees")

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for c, v in self.terms():
            bits.append(f"({v})*`{format_cell(c)}`")
        return " + ".join(bits)

    def to_column(self, index: Optional[dict] = None) -> dict:
        """Coefficients keyed by canonical cell index."""
        if index is None:
            index = cell_index(self.spec, self.degree)
        return {index[c]: v for c, v in self.coeffs.items()}


# ---------------------------------------------------------------------------
# boundary


def _take(positions: tuple):
    """Getter for the entries of a block at `positions`, always as a tuple."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


def _splits(odd: tuple) -> tuple:
    """(take e1, take e2, sign) for every split of a block into (e1, e2).

    `odd` holds the weight parity of each entry of the block, which is all
    the sign depends on.  The sign is (-1)^{wlength(e1)} * wsgn(b -> e1 e2):
    the parity of the odd entries in e1 plus the odd-odd pairs at positions
    i < j with i in e2 and j in e1.  Splits come by size of e1, then
    lexicographically by e1's positions.
    """
    m = len(odd)
    out = []
    for r in range(1, m):
        for e1 in itertools.combinations(range(m), r):
            e2 = tuple(p for p in range(m) if p not in e1)
            flips = sum(odd[j] for j in e1)
            flips += sum(odd[i] for i in e2 for j in e1 if i < j and odd[j])
            out.append((_take(e1), _take(e2), -1 if flips & 1 else 1))
    return tuple(out)


class _SplitTable(dict):
    """block -> (((e1, e2), sign) per split, whether the Koszul sign flips
    after the block), each entry filled on first use from `_splits` of the
    block's weight parities, read off the labels of even weight."""

    __slots__ = ("even", "parts")

    def __init__(self, even: frozenset):
        self.even, self.parts = even, {}

    def __missing__(self, block):
        odd = tuple([a not in self.even for a in block])
        one = lambda part: self.parts.setdefault(part, part)  # one object per equal part
        entry = self[block] = (
            tuple([one((one((one(take1(block)), one(take2(block)))), sign))
                   for take1, take2, sign in _splits(odd)]),
            not sum(odd) & 1)
        return entry


@lru_cache(maxsize=None)
def _split_table(even: frozenset) -> _SplitTable:
    """The one split table of the specs whose labels of even weight are `even`."""
    return _SplitTable(even)


def _table_of(spec: ComplexSpec) -> _SplitTable:
    """The split table of `spec`'s parity class."""
    return _split_table(frozenset([a for a, w in spec.weight_of.items() if not w & 1]))


def boundary_cell(spec: ComplexSpec, cell) -> tuple:
    """Facets of one cell with signs, ordered (block index, split size, lex mask)."""
    return tuple(_facet_sums(spec, [(cell, 1)]).items())


def _denominator(coeffs: dict, den: int = 1) -> int:
    """The least common multiple of `den` and the coefficients' denominators."""
    for v in coeffs.values():
        if type(v) is not int:
            den = lcm(den, v.denominator)
    return den


def _scaled(coeffs: dict, den: int):
    """(cell, den * coefficient) pairs, all integral; at den 1 the
    coefficients pass as they are."""
    if den == 1:
        return coeffs.items()
    return [(c, v.numerator * (den // v.denominator)) for c, v in coeffs.items()]


def _facet_sums(spec: ComplexSpec, pairs) -> dict:
    """Facet -> sum of coefficient * sign over the (cell, coefficient)
    pairs; sums that cancel stay in as zeros."""
    table = _table_of(spec)
    out: dict = {}
    get = out.get
    for cell, n in pairs:
        for i, block in enumerate(cell):
            splits, flip = table[block]
            if splits:
                head, tail = cell[:i], cell[i + 1:]
                for pair, sign in splits:
                    facet = head + pair + tail
                    out[facet] = get(facet, 0) + n * sign
            if flip:
                n = -n
    return out


def boundary(chain: ChainVector) -> ChainVector:
    spec, coeffs = chain.spec, chain.coeffs
    den = _denominator(coeffs)
    sums = _facet_sums(spec, _scaled(coeffs, den))
    if den > 1:
        # a Fraction wherever a Fraction coefficient reaches, an int elsewhere
        fractional = _facet_sums(spec, [(cell, 1) for cell, v in coeffs.items()
                                        if type(v) is not int])
        sums = {f: Fraction(n, den) if f in fractional else n // den
                for f, n in sums.items() if n}
    return ChainVector(spec, chain.degree - 1, sums)


def is_cycle(chain: ChainVector) -> bool:
    if chain.degree == 0:
        return True
    den = _denominator(chain.coeffs)
    return not any(_facet_sums(chain.spec, _scaled(chain.coeffs, den)).values())


def bounds(witness: ChainVector, chain: ChainVector) -> bool:
    """Whether the boundary of `witness` is `chain`: both are scaled by the
    least common multiple of all their denominators and compared in ints."""
    if witness.spec != chain.spec or witness.degree != chain.degree + 1:
        return False
    den = _denominator(witness.coeffs, _denominator(chain.coeffs))
    sums = _facet_sums(witness.spec, _scaled(witness.coeffs, den))
    return {f: n for f, n in sums.items() if n} == dict(_scaled(chain.coeffs, den))


# ---------------------------------------------------------------------------
# concatenation product


def merge_specs(a: ComplexSpec, b: ComplexSpec) -> ComplexSpec:
    if a.kind != b.kind:
        raise ValueError("cannot concatenate chains of different complex kinds")
    if a.width != b.width:
        raise ValueError("cannot concatenate chains of different widths")
    if set(a.labels) & set(b.labels):
        raise ValueError("label sets overlap")
    labels = tuple(sorted(a.labels + b.labels))
    wmap = dict(zip(a.labels, a.weights)) | dict(zip(b.labels, b.weights))
    return ComplexSpec(a.kind, labels, tuple(wmap[x] for x in labels), a.width)


def concat(a: ChainVector, b: ChainVector) -> ChainVector:
    """Place configuration a entirely to the left of configuration b.

    Satisfies d(a|b) = da|b + (-1)^{wdim a} a|db, so concatenations of
    cycles are cycles.
    """
    spec = merge_specs(a.spec, b.spec)
    out: dict = {}
    for ca, va in a.coeffs.items():
        for cb, vb in b.coeffs.items():
            out[ca + cb] = out.get(ca + cb, 0) + va * vb
    return ChainVector(spec, a.degree + b.degree, out)


def concat_all(chains: Iterable[ChainVector], width, kind="cell") -> ChainVector:
    """Concatenation of several chains; the empty product is the unit.

    The unit is the empty-configuration 0-chain, whose complex has no
    labels at all.
    """
    result = None
    for ch in chains:
        result = ch if result is None else concat(result, ch)
    if result is None:
        empty = cell_complex((), width) if kind == "cell" else permutohedron((), width)
        return ChainVector(empty, 0, {(): 1})
    return result


# ---------------------------------------------------------------------------
# boundary matrices


@dataclass(frozen=True)
class BoundaryMatrix:
    spec: ComplexSpec
    degree: int
    rows: int
    cols: int
    entries: tuple = field(repr=False)  # per column, {row: value} of its nonzeros

    def columns(self) -> list:
        return list(self.entries)  # a new list of the shared dicts

    @property
    def triplets(self) -> tuple:
        """Every nonzero as (row, col, value), sorted."""
        return tuple(sorted((r, c, v) for c, col in enumerate(self.entries)
                            for r, v in col.items()))


def boundary_matrix(spec: ComplexSpec, degree: int) -> BoundaryMatrix:
    """Matrix of d_degree with rows/cols in canonical cell order.

    Column j is the boundary of the j-th `degree`-cell expressed in the
    (degree-1)-cells, entry for entry what `boundary_cell` gives, with
    each block's splits read from the spec's shared split table.
    """
    if degree < 1:
        raise ValueError("boundary_matrix is defined for degree >= 1")
    lower = cell_index(spec, degree - 1)
    uppers = enumerate_cells(spec, degree)
    table = _table_of(spec)
    entries = []
    for cell in uppers:
        col = {}
        prefix = 1
        for i, block in enumerate(cell):
            splits, flip = table[block]
            if splits:
                head, tail = cell[:i], cell[i + 1:]
                for pair, sign in splits:
                    col[lower[head + pair + tail]] = prefix * sign
            if flip:
                prefix = -prefix
        entries.append(col)
    return BoundaryMatrix(spec, degree, len(lower), len(uppers), tuple(entries))


# ---------------------------------------------------------------------------
# the Morse complex of the least-label matching


def _others(spec: ComplexSpec) -> ComplexSpec:
    """The complex on the labels other than the least."""
    return ComplexSpec(spec.kind, spec.labels[1:], spec.weights[1:], spec.width)


def _fitting(spec: ComplexSpec, degree: int) -> dict:
    """block -> its number of occurrences in the (degree-1)-cells on the
    other labels, for every such block that the least label fits into."""
    room = None if spec.width is None else spec.width - spec.weights[0]
    weight_of = spec.weight_of
    count = Counter(itertools.chain.from_iterable(enumerate_cells(_others(spec), degree - 1)))
    return {block: n for block, n in count.items()
            if room is None or sum(map(weight_of.__getitem__, block)) <= room}


def matched_count(spec: ComplexSpec, degree: int) -> int:
    """m_degree, the number of matched degree-cells: the blocks that the
    least label fits into, summed over the (degree-1)-cells on the others."""
    return sum(_fitting(spec, degree).values())


def _critical_cells(spec: ComplexSpec, degree: int) -> list:
    """The critical degree-cells, from the cells on the other labels: (a)
    inserted as a singleton where it cannot join the block after it, then,
    in ordered complexes, a inserted into a block at any place but the first."""
    single, rest, fit = spec.labels[:1], _others(spec), _fitting(spec, degree + 1)
    out = [cell[:i] + (single,) + cell[i:] for cell in enumerate_cells(rest, degree)
           for i in range(len(cell) + 1) if i == len(cell) or cell[i] not in fit]
    if spec.kind == ORDERED:
        fit = _fitting(spec, degree)
        out += [cell[:i] + (block[:p] + single + block[p:],) + cell[i + 1:]
                for cell in enumerate_cells(rest, degree - 1)
                for i, block in enumerate(cell) if block in fit
                for p in range(1, len(block) + 1)]
    return out


@dataclass(frozen=True)
class MorseMatrix:
    """d^M_degree of the least-label matching, over the critical cells."""
    spec: ComplexSpec
    degree: int
    rows: int  # critical (degree-1)-cells
    cols: int  # critical degree-cells
    incidences: frozenset  # [sigma : tau] of every matched pair of cells sigma of this degree
    entries: tuple = field(repr=False)  # per column, {row: value} of its nonzeros

    def columns(self) -> list:
        return list(self.entries)


def morse_matrix(spec: ComplexSpec, degree: int) -> MorseMatrix:
    """d^M_degree of the Morse complex of the least-label matching.

    Let a be the least label.  A cell with a first in a block of two or
    more labels is matched with its facet that splits (a) off to the left,
    a singleton (a) followed by a block it fits into with the cell that
    merges them; every other cell is critical.  As d splits one block into
    an adjacent pair, the matching is acyclic and its gradient paths are
    straight: from a facet (.., (a), B, ..) matched upward, through the
    merged cell s, to (.., B, (a), ..), with factor -[s : (.., B, (a), ..)]
    [s : (.., (a), B, ..)] (the Koszul signs of the blocks before cancel),
    until a meets a block it cannot join, or the end.  A column is the
    boundary of a critical cell, each facet matched upward moved along its
    path, each facet matched downward left out.  Then
    rank d_degree = m_degree + rank d^M_degree, when every matched
    incidence, which `incidences` lists, is a unit.

    Splits come by size of e1, then lex: a block (a,) + B's first split is
    ((a), B), its last (B, (a)).
    """
    if degree < 1:
        raise ValueError("morse_matrix is defined for degree >= 1")
    a, single, table = spec.labels[0], spec.labels[:1], _table_of(spec)
    fit = _fitting(spec, degree)  # holds every block that a path meets
    lower = {c: i for i, c in enumerate(_critical_cells(spec, degree - 1))}
    uppers = _critical_cells(spec, degree)

    def settle(facet: tuple, j: int):
        """(critical cell, factor) at the end of facet's path, a in facet[j];
        None when the facet is matched downward."""
        if len(facet[j]) > 1:
            return None if facet[j][0] == a else (facet, 1)
        factor = 1
        while j + 1 < len(facet) and facet[j + 1] in fit:
            block = facet[j + 1]
            splits = table[single + block][0]
            factor *= -splits[0][1] * splits[-1][1]
            facet = facet[:j] + (block, single) + facet[j + 2:]
            j += 1
        return facet, factor

    entries = []
    for cell in uppers:
        at = next(i for i, block in enumerate(cell) if a in block)
        near = at + (len(cell[at]) == 1)  # the block split next to a
        col: dict = {}
        prefix = 1
        for i, block in enumerate(cell):
            splits, flip = table[block]
            if splits:
                head, tail = cell[:i], cell[i + 1:]
                for pair, sign in splits:
                    facet, value = head + pair + tail, prefix * sign
                    if i == near:
                        settled = settle(facet, at if at < i else i + (a not in pair[0]))
                        if settled is None:
                            continue
                        facet, factor = settled
                        value *= factor
                    r = lower[facet]
                    col[r] = col.get(r, 0) + value
            if flip:
                prefix = -prefix
        entries.append({r: v for r, v in col.items() if v})
    incidences = frozenset(table[single + block][0][0][1] for block in fit)
    return MorseMatrix(spec, degree, len(lower), len(uppers), incidences, tuple(entries))


@dataclass
class BoundaryReport:
    spec: ComplexSpec
    max_degree: int
    ok: bool
    failures: list = field(default_factory=list)


def verify_boundary_squared(spec: ComplexSpec) -> BoundaryReport:
    """Check d(d(cell)) = 0 for every cell of every degree k >= 2, both by
    chain-level `boundary` and, in ints, as column `cell` of d_{k-1} d_k on
    the boundary matrices, which have a build of their own.  A cell failing
    either check is reported once, as (k, cell)."""
    top = spec.top_degree()
    report = BoundaryReport(spec, max_degree=max(top, 0), ok=True)
    below = boundary_matrix(spec, 1).entries if top >= 2 else ()
    for k in range(2, top + 1):
        above = boundary_matrix(spec, k).entries
        for cell, col in zip(enumerate_cells(spec, k), above):
            dd = boundary(boundary(ChainVector(spec, k, {cell: 1})))
            sums: dict = {}
            for r, v in col.items():
                for s, u in below[r].items():
                    sums[s] = sums.get(s, 0) + v * u
            if not dd.is_zero() or any(sums.values()):
                report.ok = False
                report.failures.append((k, format_cell(cell)))
        below = above
    return report

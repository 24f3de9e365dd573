"""Homology bases of the ordered complexes from wheels and filters.

Two named bases for H_k of the ordered complex on n unit disks at width w,
both made of generator words on all n labels (factors use disjoint labels
and every label appears):

"am" words concatenate proper wheels and nontrivial plain filters.
  1. wheels inside a filter on three or more wheels appear in increasing
     order of largest label;
  2. wheels inside a two-wheel filter appear in increasing rank;
  3. adjacent bare wheels strictly decrease in rank;
  4. a bare wheel immediately left of a filter outranks the filter's
     least wheel.

"amw" words concatenate proper wheels and nontrivial averaged filters on
three or more wheels.
  1. wheels inside an averaged filter appear in increasing rank;
  2. for adjacent bare wheels, either the left one outranks the right
     one or their sizes sum to more than the width;
  3. a bare wheel immediately left of an averaged filter outranks the
     filter's least wheel.

Rank compares (size, largest label); with disjoint labels it never ties.
All filters appearing in words must be admissible at the width (every
all-but-one sum of wheel sizes fits) and nontrivial (the total does not).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cells import cell_complex, wsgn_pairs
from .cycles import (AvgFilter, Filter, GeneratorWord, Wheel, admissible_sizes,
                     word_cycle)
from .homology import (DEFAULT_MAX_CELLS, CertificateError, _betti_rule, _express,
                       _guard, _modulo_boundaries)

AM = "am"
AMW = "amw"


def _proper_wheels_on(support: tuple) -> List[Wheel]:
    """Every proper wheel on these labels: the largest first, the rest in
    each order, in lex order of the rest when `support` is sorted."""
    top = max(support)
    rest = tuple(a for a in support if a != top)
    return [Wheel((top,) + p) for p in itertools.permutations(rest)]


def _set_partitions(items: tuple, parts: int):
    """Unordered partitions of items into exactly `parts` nonempty blocks."""
    if parts == 1:
        yield (items,)
        return
    if len(items) < parts:
        return
    first, rest = items[0], items[1:]
    # first goes alone
    for p in _set_partitions(rest, parts - 1):
        yield ((first,),) + p
    # first joins a block
    for p in _set_partitions(rest, parts):
        for i in range(len(p)):
            yield p[:i] + (((first,) + p[i]),) + p[i + 1:]


def _filters_on(support: tuple, width: int, style: str) -> list:
    """All basis-legal filters using exactly these labels."""
    n = len(support)
    if n <= width:
        return []  # every filter on these labels is trivial
    out = []
    min_arity = 2 if style == AM else 3
    for m in range(min_arity, n + 1):
        for blocks in _set_partitions(support, m):
            if not admissible_sizes([len(b) for b in blocks], width):
                continue
            for wheels in itertools.product(*[_proper_wheels_on(b) for b in blocks]):
                if style == AMW or m == 2:
                    ordered = tuple(sorted(wheels, key=Wheel.rank_key))
                else:
                    ordered = tuple(sorted(wheels, key=lambda w: w.top))
                out.append(AvgFilter(ordered) if style == AMW else Filter(ordered))
    return sorted(out, key=str)


def _adjacency_ok(prev, nxt, width: int, style: str) -> bool:
    if isinstance(prev, Filter):
        return True  # nothing is required to the right of a filter
    if isinstance(nxt, Wheel):
        if prev.rank_key() > nxt.rank_key():
            return True
        return style == AMW and prev.size + nxt.size > width
    return prev.rank_key() > nxt.least_wheel().rank_key()


def enumerate_basis(labels, width: int, degree: int, style: str = AMW,
                    ) -> Tuple[GeneratorWord, ...]:
    """All basis words of this degree, in a fixed deterministic order."""
    labels = cell_complex(labels, width).labels
    if style not in (AM, AMW):
        raise ValueError(f"unknown basis style {style!r}")
    words: List[GeneratorWord] = []

    factors_cache: Dict[tuple, list] = {}

    def factors_on(support: tuple) -> list:
        if support not in factors_cache:
            wheels = _proper_wheels_on(support) if len(support) <= width else []
            factors_cache[support] = wheels + _filters_on(support, width, style)
        return factors_cache[support]

    def extend(remaining: tuple, prev, factors: tuple, deg_left: int):
        if not remaining:
            if deg_left == 0:
                words.append(GeneratorWord(factors))
            return
        if deg_left < 0 or deg_left > len(remaining) - 1:
            return
        # the next factor may use any of the remaining labels; the factor
        # sequence is the word, so every choice order is a different word
        for r in range(1, len(remaining) + 1):
            for support in itertools.combinations(remaining, r):
                left = tuple(a for a in remaining if a not in support)
                for f in factors_on(support):
                    if prev is not None and not _adjacency_ok(prev, f, width, style):
                        continue
                    extend(left, f, factors + (f,), deg_left - f.degree)

    extend(labels, None, (), degree)
    return tuple(sorted(words, key=lambda w: (_word_class(w), str(w))))


def _word_class(word: GeneratorWord) -> int:
    """0 = bare wheels in strictly decreasing rank, 1 = bare wheels with an
    inversion, 2 = the word contains a filter."""
    if any(isinstance(f, Filter) for f in word.factors):
        return 2
    ranks = [f.rank_key() for f in word.factors]
    return 0 if all(a > b for a, b in zip(ranks, ranks[1:])) else 1


def _pair_level(word: GeneratorWord) -> int:
    """Grading for the top-degree pairing, on either basis style.

    Bare words in strictly decreasing rank sit at 0, bare words with an
    inversion at 1, and a single filter on m wheels at m - 1.  Expanding
    an averaged-filter word in the plain-filter basis only drops levels.
    """
    if len(word.factors) == 1 and isinstance(word.factors[0], Filter):
        return word.factors[0].arity - 1
    return _word_class(word)


# the cycle of a basis word, under the name the package exports
basis_cycle = word_cycle


@dataclass(frozen=True)
class BasisReport:
    labels: tuple
    width: int
    degree: int
    style: str
    count: int
    betti: int
    independent: bool

    @property
    def ok(self) -> bool:
        return self.count == self.betti and self.independent

    def __str__(self):
        verdict = "ok" if self.ok else "MISMATCH"
        return (f"{self.style} basis at degree {self.degree}, width {self.width}: "
                f"{self.count} words vs betti {self.betti}, "
                f"independent={self.independent} [{verdict}]")


def verify_basis(labels, width: int, degree: int, style: str = AMW,
                 max_cells: int = DEFAULT_MAX_CELLS) -> BasisReport:
    """Count the basis words against betti and check independence.

    Independence is checked modulo boundaries: the word cycles, absorbed
    into the image echelon of d_{degree+1}, must each add rank.  The Betti
    number comes from the ranks of that image and the one below.  Refused
    before the words are enumerated when the cells from degree-1 up
    exceed `max_cells`: each image echelon builds the ones above it first.
    """
    spec = cell_complex(labels, width)
    _guard(spec, range(degree - 1, spec.n + 1), max_cells)
    words = enumerate_basis(spec.labels, width, degree, style)
    _, below, _ = _modulo_boundaries(spec, degree - 1, None, max_cells)
    index, image, extended = _modulo_boundaries(
        spec, degree, (basis_cycle(w, width) for w in words), max_cells)
    betti = _betti_rule(len(index), below.rank, image.rank)
    return BasisReport(spec.labels, width, degree, style, len(words), betti,
                       extended.rank - image.rank == len(words))


# ---------------------------------------------------------------------------
# change of basis


@dataclass(frozen=True)
class BasisChange:
    labels: tuple
    width: int
    degree: int
    amw_words: tuple
    am_words: tuple
    matrix: tuple  # rows follow amw_words, columns follow am_words
    triangular: Optional[bool]  # None when the pairing does not apply

    def __str__(self):
        lines = [f"change of basis at degree {self.degree}, width {self.width}"]
        for w, row in zip(self.amw_words, self.matrix):
            terms = " + ".join(f"({c})*{a}" for c, a in zip(row, self.am_words) if c)
            lines.append(f"  {w} = {terms if terms else '0'}")
        if self.triangular is not None:
            lines.append(f"  triangular with unit diagonal: {self.triangular}")
        return "\n".join(lines)


def _am_partner(word: GeneratorWord) -> Optional[GeneratorWord]:
    """The am word matching an amw word under the top-degree pairing.

    Bare words in strictly decreasing rank are their own partners; a
    two-wheel word with an inversion pairs with the two-wheel filter on
    the same wheels; a single averaged filter pairs with the plain filter
    on the same wheels reordered by largest label.  The pairing sign is
    the weighted sign of that reordering at the wheel sizes.
    """
    cls = _word_class(word)
    if cls == 0:
        return word
    if cls == 1:
        if len(word.factors) != 2:
            return None
        ordered = tuple(sorted(word.factors, key=Wheel.rank_key))
        return GeneratorWord((Filter(ordered),))
    if len(word.factors) != 1:
        return None
    af = word.factors[0]
    reordered = tuple(sorted(af.wheels, key=lambda w: w.top))
    return GeneratorWord((Filter(reordered),))


def _pairing_sign(word: GeneratorWord) -> int:
    if _word_class(word) != 2:
        return 1
    af = word.factors[0]
    src = tuple(w.top for w in af.wheels)
    size_of = {w.top: w.size for w in af.wheels}
    return wsgn_pairs(tuple(sorted(src)), src, size_of.__getitem__)


def basis_change(labels, width: int, degree: int) -> BasisChange:
    """Expand each amw basis word in the am basis.

    At the top interesting degree (#labels - 2) the words pair off and the
    matrix is block-triangular with that pairing on the diagonal: bare
    words are fixed, inverted two-wheel words open into two-wheel filters,
    and averaged filters expand as the plain filter plus two-wheel
    corrections.  Refused as `verify_basis` is, at DEFAULT_MAX_CELLS.
    """
    spec = cell_complex(labels, width)
    _guard(spec, range(degree, spec.n + 1), DEFAULT_MAX_CELLS)
    labels = spec.labels
    amw_words = enumerate_basis(labels, width, degree, AMW)
    am_words = enumerate_basis(labels, width, degree, AM)
    am_cycles = [basis_cycle(w, width) for w in am_words]
    reduced = _modulo_boundaries(spec, degree, am_cycles, DEFAULT_MAX_CELLS)
    rows = []
    for w in amw_words:
        result = _express(basis_cycle(w, width), am_cycles, *reduced)
        if not result.ok:
            raise CertificateError(f"{w} is not an am combination")
        rows.append(result.coefficients)
    triangular = (_triangular(amw_words, am_words, rows)
                  if degree == len(labels) - 2 and amw_words else None)
    return BasisChange(labels, width, degree, amw_words, am_words,
                       tuple(tuple(r) for r in rows), triangular)


def _triangular(amw_words, am_words, rows) -> bool:
    """Whether each row holds its pairing sign at its partner, else lower levels only."""
    if len(amw_words) != len(am_words):
        return False
    col_of = {a: j for j, a in enumerate(am_words)}
    level = [_pair_level(a) for a in am_words]
    for w, row in zip(amw_words, rows):
        j = col_of.get(_am_partner(w))
        if j is None or row[j] != _pairing_sign(w):
            return False
        if any(c and i != j and level[i] >= _pair_level(w) for i, c in enumerate(row)):
            return False
    return True

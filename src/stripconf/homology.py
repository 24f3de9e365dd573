"""Rational homology of the strip complexes.

Betti numbers come from exact ranks of the boundary matrices:
betti_k = #cells_k - rank d_k - rank d_{k+1}.  Every rank takes the one
guarded route of `_blocks`, picked by the kind of complex alone, and every
profile is assembled from its blocks by one rule (`_profile`).  Both row
sources clear top down: each degree leaves out the rows at the pivots of
the echelon one degree up (Chen-Kerber's twist, `Echelon.clear`).

* unit-weight ordered complexes (any label set, any width, None
  included) are ranked per irreducible by the isotypic blocks of
  `equivariant`, which use the free S_n action to rank one small block per
  irreducible instead of the cell-level matrix, and count cells without
  enumerating them.  `isotypic_profile` also reports the multiplicity of
  every irreducible in every degree.  The guard counts block rows: m_k
  orbits times the sum of the f of the irreducibles, in every degree.
* every other complex (weighted labels, permutohedra) is ranked on the
  Morse complex of the least-label matching (`chains.morse_matrix`):
  rank d_k = m_k + rank d^M_k, with m_k matched k-cells.  On perm(6;3)
  610 of the 4,550 cells are critical, on perm(8;3) 56,280 of 521,640.
  Only the cells on the labels other than the least are listed: the cells
  of every degree and the m_k are counted by weight class, exactly for
  every spec (`_fill_count`, `matched_count`).  The echelons of d^M are
  built top down in one pass, each cleared by the one above with the step
  of `image_echelon` (`_cleared`), and cached apart from membership's
  under (spec, degree, "morse").  The pass lists the critical cells of
  each degree once: the rows of one matrix are the columns of the next.
  Two checks raise CertificateError: every matched incidence is a unit,
  and in both degrees of every matrix built the listed critical cells and
  the counted matched cells add up to the counted cells (`_morse_matrix`).
  The guard counts cells in every degree the sweep reads: exactly for
  unit weights, and for weighted labels by the unrestricted ordered count,
  an upper estimate, because it must stay immediate where an exact
  weighted count need not be (`estimate_cells`).

The guards of homology_profile, betti_number, boundary_rank, is_boundary,
express and verify_basis run before the exact top degree is searched for,
against the search-free bound n - ceil(total weight / width).

The cell-level echelon of the image of d_{k+1} is cached per (complex,
degree); one guarded path, `_modulo_boundaries`, reads it for is_boundary
and extends a copy by the cycles of express and `basis`.  Every such
echelon is built by one rule, cleared by the echelon one degree up, so its
rows, and every membership, witness and certificate read from them, depend
only on the complex and the degree, not on what was asked before.  Each
eliminates the cells in increasing count of the boundaries that touch
them, which the clearing changes from degree to degree; on perm(6;3) that
cuts the cleared image echelon of d_2 from 32,169 to 9,246 entries.
Witnesses, certificates and `express` always work on cells.  A tracked
echelon has the rows of a plain one, so it serves both kinds of query and
replaces a plain one when a witness is first asked for; there one
reduction (`Echelon.solve`) gives the witness's coordinates or, when the
cycle does not bound, its certificate.

Every witness and certificate is checked before it is returned, and a
failed check raises CertificateError, which `python -O` does not strip.  A
witness's boundary must be the cycle, compared in ints after both are
scaled by their common denominator (`chains.bounds`).  A certificate, from
`Echelon.annihilator` or `Echelon.solve`, must be nonzero on the cycle and
vanish on every row of the image echelon that meets its support, each dot
product summed again from the rows (`Echelon.certifies`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Dict, Optional, Sequence

from .cells import (ORDERED, ComplexSpec, cell_complex, cell_index,
                    enumerate_cells, permutohedron, wheel_decomposition)
from .chains import ChainVector, MorseMatrix, boundary_matrix, bounds, is_cycle, morse_matrix
from .equivariant import block_ranks
from .linalg import CertificateError, Echelon, echelon_of_rows

DEFAULT_MAX_CELLS = 5_000_000


class ResourceRefusal(RuntimeError):
    """Raised instead of attempting an enumeration past the resource cap."""


def _classes(weights: tuple) -> tuple:
    """(class weights, class sizes): the distinct weights, ascending, and
    how many labels carry each."""
    distinct = tuple(sorted(set(weights)))
    return distinct, tuple(map(weights.count, distinct))


def _block_choices(weights: tuple, counts: tuple, room: Optional[int],
                   ordered: bool) -> list:
    """(counts left, ways) for every nonempty block of the free labels,
    counts[i] of weight weights[i], that weighs at most `room` (None: any):
    c_i labels of class i in prod C(counts[i], c_i) ways, times (sum c_i)!
    orders in ordered complexes."""
    choices = [((), 1, 0, 0)]  # (counts left so far, ways, weight, size)
    for w, r in zip(weights, counts):
        choices = [(left + (r - c,), ways * comb(r, c), weight + c * w, size + c)
                   for left, ways, weight, size in choices
                   for c in range(r + 1) if room is None or weight + c * w <= room]
    return [(left, ways * factorial(size) if ordered else ways)
            for left, ways, _, size in choices if size]


@lru_cache(maxsize=None)
def _fill_count(weights: tuple, counts: tuple, parts: int, width: Optional[int],
                ordered: bool) -> int:
    """Ways to fill `parts` blocks, left to right, with counts[i] labels of
    weight weights[i]: each block is one of `_block_choices` of the labels
    still free that fits the width.  Unit weights are the one-class case."""
    if parts == 0:
        return int(not any(counts))
    if parts > sum(counts):
        return 0
    return sum(ways * _fill_count(weights, left, parts - 1, width, ordered)
               for left, ways in _block_choices(weights, counts, width, ordered))


def _cell_count(spec: ComplexSpec, degree: int) -> int:
    """The number of degree-cells, exact for every spec, counted by weight
    class (`_fill_count`) without listing a cell."""
    if not 0 <= degree <= max(spec.n - 1, 0):
        return 0
    return _fill_count(*_classes(spec.weights), spec.n - degree, spec.width,
                       spec.kind == ORDERED)


def matched_count(spec: ComplexSpec, degree: int) -> int:
    """m_degree, the number of matched degree-cells of the least-label
    matching: those in which the least label a leads a block of two or
    more labels.  Each is a (degree-1)-cell on the other labels with a put
    first in one of its n - degree blocks, a block B that a fits into
    (w(B) + w_a <= width): B's labels and order, B's place, and the rest
    filled around it, all counted by weight class."""
    places = spec.n - degree
    if degree < 1 or places < 1:
        return 0
    weights, counts = _classes(spec.weights[1:])
    room = None if spec.width is None else spec.width - spec.weights[0]
    ordered = spec.kind == ORDERED
    return places * sum(ways * _fill_count(weights, left, places - 1, spec.width, ordered)
                        for left, ways in _block_choices(weights, counts, room, ordered))


def _top_bound(spec: ComplexSpec) -> int:
    """An upper bound on the top degree that searches no packing: n minus
    ceil(total weight / width) blocks, exact for unit weights."""
    if spec.n == 0 or spec.width is None or max(spec.weights) > spec.width:
        return spec.top_degree()  # no search in these cases
    return spec.n - -(-spec.total_weight() // spec.width)


def estimate_cells(spec: ComplexSpec, degree: Optional[int] = None) -> int:
    """The number of cells for unit weights (exact, `_cell_count`); for
    weighted labels the unrestricted ordered count, an upper estimate.

    The guard reads this before the top degree is searched for, so it has
    to stay immediate.  An exact weighted count runs a state per count of
    labels left in each weight class and blocks left: on 28 labels of seven
    weights at width 10 (the tests' hard packing), degree 0 alone took 8 s,
    and every degree up to the top bound 939,542 states and 101-132 s of
    CPU on a shared 2-vCPU VM, where the refusal has to take under 0.5 s."""
    n = spec.n
    if degree is None:
        return sum(estimate_cells(spec, d) for d in range(_top_bound(spec) + 1))
    if all(w == 1 for w in spec.weights):
        return _cell_count(spec, degree)
    if not 0 <= degree <= max(n - 1, 0):
        return 0
    return factorial(n) * comb(n - 1, n - degree - 1)


def _involutions(n: int) -> int:
    """The number of involutions of S_n, which is the sum of the dimensions
    f of its irreducibles."""
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def _guard(spec: ComplexSpec, degrees, max_cells: int, cells: bool = True):
    """Refuse up front when the work in these degrees (those from 0 to the
    search-free top bound) exceeds the cap.

    The work is the number of cells, or, when `cells` is False and `spec`
    is ranked per irreducible, the number of isotypic block rows: m_k
    orbits times f summed over the irreducibles, in every degree k.
    """
    degrees = sorted({d for d in degrees if 0 <= d <= _top_bound(spec)})
    est, what = sum(estimate_cells(spec, d) for d in degrees), "cells"
    if not cells and _isotypic(spec):
        # unit-weight ordered: every orbit holds exactly n! cells
        est, what = est // factorial(spec.n) * _involutions(spec.n), "isotypic block rows"
    if est > max_cells:
        raise ResourceRefusal(
            f"estimated {est} {what} across degrees {degrees} "
            f"of {spec.describe()} exceeds the cap of {max_cells}")


# ---------------------------------------------------------------------------
# cached image echelons

# (spec, degree) -> image echelon of d_{degree+1}; (spec, degree, "morse") -> that of d^M
_image_cache: Dict[tuple, Echelon] = {}


def image_echelon(spec: ComplexSpec, degree: int, track: bool = False) -> Echelon:
    """Echelon of the boundaries of (degree+1)-cells, as vectors in C_degree.

    Tracked echelons remember which (degree+1)-cells combine into each
    echelon row, which is what boundary witnesses are made of.  A cached
    tracked echelon is returned for untracked requests too.

    Below the top, the boundaries of the pivot cells of the echelon one
    degree up, built first if need be, are left out (clearing).
    """
    ech = _image_cache.get((spec, degree))
    if ech is not None and (ech.track or not track):
        return ech
    top = spec.top_degree()
    if not 0 <= degree < top:
        ech = _image_cache[(spec, degree)] = Echelon(track=track)
        return ech
    above = image_echelon(spec, degree + 1) if degree + 1 < top else Echelon()
    return _cleared((spec, degree), above, boundary_matrix(spec, degree + 1).columns(), track)


def _morse_echelon(spec: ComplexSpec, degree: int) -> Echelon:
    """`image_echelon` of the Morse complex: the echelon of the image of
    d^M_{degree+1} over the critical degree-cells, cleared the same way.

    The echelons missing above it are built first, in one pass from the
    highest down, which lists the critical cells of each degree once: the
    rows of one matrix are the columns of the next.
    """
    ech = _image_cache.get((spec, degree, "morse"))
    if ech is not None:
        return ech
    top = spec.top_degree()
    if not 0 <= degree < top:
        ech = _image_cache[(spec, degree, "morse")] = Echelon()
        return ech
    high = degree
    while high + 1 < top and (spec, high + 1, "morse") not in _image_cache:
        high += 1
    ech = _image_cache[(spec, high + 1, "morse")] if high + 1 < top else Echelon()
    cells = None
    for k in range(high, degree - 1, -1):
        d = _morse_matrix(spec, k + 1, cells)
        cells = d.lowers
        ech = _cleared((spec, k, "morse"), ech, d.columns())
        del d  # its columns go before the next matrix is built
    return ech


def _cleared(key: tuple, above: Echelon, columns: list, track: bool = False) -> Echelon:
    """The echelon of `columns`, those of d_{degree+1} for `key` = (spec,
    degree, ...), cleared by `above`, the echelon one degree up; cached."""
    above.clear(columns)
    ech = _image_cache[key] = echelon_of_rows(columns, track)
    return ech


def _morse_matrix(spec: ComplexSpec, degree: int, uppers: Optional[list] = None) -> MorseMatrix:
    """`morse_matrix`, once its matched incidences are units and, in both of
    its degrees, its critical and matched cells add up to the cells."""
    d = morse_matrix(spec, degree, uppers)
    if not d.incidences <= {1, -1}:
        raise CertificateError(f"matched incidences {sorted(d.incidences)} in degree "
                               f"{degree} of {spec.describe()} are not all units")
    for k, critical in ((degree, d.cols), (degree - 1, d.rows)):
        cells = critical + matched_count(spec, k) + matched_count(spec, k + 1)
        if cells != _cell_count(spec, k):
            raise CertificateError(f"{cells} critical and matched cells in degree {k} "
                                   f"of {spec.describe()}, not {_cell_count(spec, k)}")
    return d


def _isotypic(spec: ComplexSpec) -> bool:
    """Whether the ranks of `spec` can come from the isotypic blocks."""
    return spec.kind == ORDERED and all(w == 1 for w in spec.weights)


def _blocks(spec: ComplexSpec, degrees, max_cells: int) -> list:
    """[(shape, f, {k: rank})] whose f-weighted sum is rank d_k, for the
    asked k in 1..top: a block per irreducible (`block_ranks`, each asked
    degree cleared by the next if asked) on unit-weight ordered complexes,
    else one block of ranks m_k + rank d^M_k, the Morse echelons cleared
    from the top down.
    Refused first when the degrees the route reads exceed `max_cells` (in
    block rows or cells): k-1 and k of the asked k for blocks, every degree
    from the least asked k-1 up for cells.  The top is searched for after.
    """
    bound, isotypic = _top_bound(spec), _isotypic(spec)
    asked = [k for k in degrees if 0 <= k <= bound]
    reads = ({d for k in asked for d in (k - 1, k)} if isotypic
             else range(min(asked, default=bound + 2) - 1, bound + 1))
    _guard(spec, reads, max_cells, cells=not isotypic)
    asked = [k for k in asked if 1 <= k <= spec.top_degree()]
    if isotypic:
        return block_ranks(spec, asked)
    return [(None, 1, {k: matched_count(spec, k) + _morse_echelon(spec, k - 1).rank
                       for k in asked})]


def _ranks(spec: ComplexSpec, degrees, max_cells: int) -> dict:
    """{k: rank d_k} for the asked degrees, through the route of _blocks."""
    blocks = _blocks(spec, degrees, max_cells)
    return {k: sum(f * block.get(k, 0) for _, f, block in blocks) for k in degrees}


def boundary_rank(spec: ComplexSpec, degree: int,
                  max_cells: int = DEFAULT_MAX_CELLS) -> int:
    """Rank of d_degree : C_degree -> C_{degree-1}.

    Refused, before the top degree is searched for, when the degrees that
    its route reads exceed `max_cells`, counted as betti_number counts
    them: degree-1 and degree in isotypic block rows, or every cell from
    degree-1 up for the Morse echelons, each cleared by the one above.
    """
    return _ranks(spec, [degree], max_cells)[degree]


def _betti_rule(cells: int, rank: int, rank_up: int) -> int:
    """b_k = #cells_k - rank d_k - rank d_{k+1}, checked not negative."""
    b = cells - rank - rank_up
    if b < 0:
        raise CertificateError(f"negative Betti number {cells} - {rank} - {rank_up}")
    return b


def _betti(cells: Sequence[int], ranks: Sequence[int]) -> tuple:
    """The checked Betti rule in every degree.

    No Euler-characteristic check: with rank d_0 = rank d_{top+1} = 0 the
    alternating sum of the Betti numbers telescopes to that of the cells.
    """
    return tuple(_betti_rule(c, ranks[d], ranks[d + 1]) for d, c in enumerate(cells))


# ---------------------------------------------------------------------------
# betti numbers


@dataclass(frozen=True)
class HomologyProfile:
    spec: ComplexSpec
    betti: tuple
    cells: tuple
    ranks: tuple  # ranks[d] = rank of d_d, indices 0..top+1

    def __str__(self):
        return "betti " + " ".join(f"b{d}={b}" for d, b in enumerate(self.betti))


def homology_profile(spec: ComplexSpec,
                     max_cells: int = DEFAULT_MAX_CELLS) -> HomologyProfile:
    """Betti numbers, cell counts and boundary ranks in every degree.

    Not cached itself: a repeated call ranks the isotypic blocks again, or
    counts the matched cells again and reads the cached Morse echelons.
    """
    return _profile(spec, max_cells).profile


def betti_number(spec: ComplexSpec, degree: int,
                 max_cells: int = DEFAULT_MAX_CELLS) -> int:
    """One Betti number without computing the whole profile."""
    if not 0 <= degree <= _top_bound(spec):
        return 0
    ranks = _ranks(spec, (degree, degree + 1), max_cells)
    return _betti_rule(_cell_count(spec, degree), ranks[degree], ranks[degree + 1])


@dataclass(frozen=True)
class IsotypicProfile:
    profile: HomologyProfile
    shapes: tuple          # the partitions of n, (n) first
    dims: tuple            # dimension of each irreducible V(shape)
    multiplicities: tuple  # multiplicities[k][i]: copies of V(shapes[i]) in H_k

    def terms(self, k: int) -> list:
        """(shape, dim, multiplicity) of every irreducible occurring in H_k."""
        return [(shape, f, m) for shape, f, m
                in zip(self.shapes, self.dims, self.multiplicities[k]) if m]

    def line(self, k: int) -> str:
        """H_k as a sum of irreducibles, e.g. `H1 = V(4) + 2 V(3,1)`."""
        terms = [("" if m == 1 else f"{m} ") + "V(" + ",".join(map(str, shape)) + ")"
                 for shape, _, m in self.terms(k)]
        return f"H{k} = " + (" + ".join(terms) or "0")

    def __str__(self):
        return "\n".join(self.line(k) for k in range(len(self.multiplicities)))


def isotypic_profile(spec: ComplexSpec,
                     max_cells: int = DEFAULT_MAX_CELLS) -> IsotypicProfile:
    """Multiplicity of every irreducible of S_n in every homology group.

    Only for unit-weight ordered complexes, on which S_n acts freely by
    relabeling; anything else raises ValueError.  The multiplicity of
    V(shape) in H_k is m_k f - rank R(d_k) - rank R(d_{k+1}), with m_k
    orbits of k-cells and f = dim V(shape), checked like Betti numbers.
    """
    if not _isotypic(spec):
        raise ValueError("isotypic profiles need unit weights and ordered blocks, "
                         f"not {spec.describe()}")
    return _profile(spec, max_cells)


def _profile(spec: ComplexSpec, max_cells: int) -> IsotypicProfile:
    """The profile and per-block multiplicities of either route of
    `_blocks`.  The cell route is the one block with f = 1 of the trivial
    group, whose m_k counts cells; per irreducible, m_k = cells / n!."""
    blocks = _blocks(spec, range(_top_bound(spec) + 1), max_cells)
    top = spec.top_degree()
    cells = tuple(_cell_count(spec, k) for k in range(top + 1))
    group = factorial(spec.n) if _isotypic(spec) else 1
    ranks, columns = [0] * (top + 2), []
    for _, f, block in blocks:
        rk = [block.get(k, 0) for k in range(top + 2)]
        columns.append(_betti([m // group * f for m in cells], rk))
        ranks = [r + f * b for r, b in zip(ranks, rk)]
    shapes, dims, _ = zip(*blocks)
    profile = HomologyProfile(spec, _betti(cells, ranks), cells, tuple(ranks))
    return IsotypicProfile(profile, shapes, dims, tuple(zip(*columns)))


# ---------------------------------------------------------------------------
# cycles modulo boundaries


def _modulo_boundaries(spec: ComplexSpec, k: int, cycles, max_cells: int,
                       track: bool = False) -> tuple:
    """Reduce the k-cycles `cycles` of `spec` modulo the image of d_{k+1}.

    Returns (index, image, extended): the k-cell index, the image echelon
    (tracked when `track`), and `image.extended` by the cycles, tagged by
    position, or None when `cycles` is None.  Refused first when the cells
    of every degree from k up exceed `max_cells`: the image echelon builds
    the echelons above it to clear by.  `cycles` may be lazy and is read
    only after.
    """
    _guard(spec, range(k, spec.n + 1), max_cells)
    index, image = cell_index(spec, k), image_echelon(spec, k, track)
    extended = None if cycles is None else image.extended(z.to_column(index) for z in cycles)
    return index, image, extended


def _express(chain: ChainVector, basis: Sequence[ChainVector], index: dict,
             image: Echelon, extended: Echelon) -> ExpressResult:
    """`express` of `chain` in `basis`, which `_modulo_boundaries` reduced."""
    spec, k = chain.spec, chain.degree
    target = chain.to_column(index)
    coords = extended.coordinates(target)
    if coords is None:
        cells, left = enumerate_cells(spec, k), extended.residue(target)
        return ExpressResult(False, residual=ChainVector(
            spec, k, {cells[c]: v for c, v in left.items()}))
    coeffs = tuple(coords.get(i, 0) for i in range(len(basis)))
    remainder = chain
    for c, b in zip(coeffs, basis):
        if c:
            remainder = remainder - b.scale(c)
    if image.residue(remainder.to_column(index)):
        raise CertificateError("express produced a non-bounding remainder")
    return ExpressResult(True, coefficients=coeffs)


@dataclass(frozen=True)
class BoundaryAnswer:
    is_boundary: bool
    witness: Optional[ChainVector] = None
    certificate: Optional[dict] = None  # cell -> exact rational, a functional

    def __bool__(self):
        return self.is_boundary


def is_boundary(chain: ChainVector, want_witness: bool = False,
                max_cells: int = DEFAULT_MAX_CELLS) -> BoundaryAnswer:
    """Decide whether a cycle bounds; optionally produce a witness.

    The witness is a (degree+1)-chain whose boundary is the input.  When
    the cycle does not bound, the certificate is a functional on cells of
    the same degree vanishing on all boundaries but not on the input.
    """
    spec, k = chain.spec, chain.degree
    if not is_cycle(chain):
        raise ValueError("is_boundary expects a cycle")
    if chain.is_zero():
        return BoundaryAnswer(True, witness=ChainVector.zero(spec, k + 1))
    index, ech, _ = _modulo_boundaries(spec, k, None, max_cells, track=want_witness)
    vec = chain.to_column(index)
    coords, y = ech.solve(vec) if want_witness else (None, ech.annihilator(vec))
    if coords is None:
        if y is None:
            return BoundaryAnswer(True)
        if not ech.certifies(y, vec):
            raise CertificateError("the certificate does not separate the cycle "
                                   "from the boundaries")
        cells = enumerate_cells(spec, k)
        return BoundaryAnswer(False, certificate={cells[c]: v for c, v in y.items()})
    upcells = enumerate_cells(spec, k + 1)
    witness = ChainVector(spec, k + 1, {upcells[j]: v for j, v in coords.items()})
    if not bounds(witness, chain):
        raise CertificateError("the boundary witness does not reproduce the cycle")
    return BoundaryAnswer(True, witness=witness)


@dataclass(frozen=True)
class ExpressResult:
    ok: bool
    coefficients: Optional[tuple] = None  # aligned with the basis argument
    residual: Optional[ChainVector] = None

    def __bool__(self):
        return self.ok


def express(chain: ChainVector, basis: Sequence[ChainVector],
            max_cells: int = DEFAULT_MAX_CELLS) -> ExpressResult:
    """Write a cycle as a basis combination modulo boundaries.

    All inputs must be cycles in one complex and degree.  On success the
    coefficients satisfy  chain - sum coeff*basis = boundary.  On failure
    the residual is the part of the chain left after killing the image and
    the basis residues; it certifies that no combination works.
    """
    spec, k = chain.spec, chain.degree
    for b in basis:
        if b.spec != spec or b.degree != k:
            raise ValueError("basis must match the chain")
    if not all(is_cycle(z) for z in (chain, *basis)):
        raise ValueError("express expects cycles")
    return _express(chain, basis, *_modulo_boundaries(spec, k, basis, max_cells))


# ---------------------------------------------------------------------------
# block-sum decomposition of the ordered complex


@dataclass(frozen=True)
class DecompositionReport:
    spec: ComplexSpec
    ok: bool
    left: tuple   # betti of the ordered complex
    right: tuple  # summed shifted betti over all permutations
    sectors: int  # how many permutations contributed

    def __str__(self):
        verdict = "matches" if self.ok else "DIFFERS FROM"
        return (f"ordered homology {self.left} {verdict} "
                f"permutation sum {self.right} over {self.sectors} sectors")


def decomposition_check(labels, width: int, weights: Optional[dict] = None,
                        max_cells: int = DEFAULT_MAX_CELLS) -> DecompositionReport:
    """Check that ordered homology splits over wheel decompositions.

    For every permutation sigma of the labels, the axles of sigma's wheels
    carry the total wheel weights; the permutohedron complex on those
    weighted axles contributes its homology shifted up by (number of
    labels - number of wheels).  The direct sum over all sigma must equal
    the homology of the ordered complex.

    A permutohedron's cells, signs and ranks depend only on its weights in
    label order, so each sector is built on positions 1..m: the n! sectors
    share at most 2^(n-1) cached profiles (on unit weights).
    """
    spec = cell_complex(labels, width, weights)
    weight_of = spec.weight
    left = homology_profile(spec, max_cells=max_cells)
    top = spec.top_degree()
    right = [0] * (top + 1)
    sectors = 0
    for sigma in itertools.permutations(spec.labels):
        dec = wheel_decomposition(sigma, weight_of)
        shift = spec.n - len(dec.wheels)
        pspec = permutohedron(len(dec.weights), width, dec.weights)
        prof = homology_profile(pspec, max_cells=max_cells)
        sectors += 1
        for d, b in enumerate(prof.betti):
            if not b:
                continue
            if d + shift > top:
                raise CertificateError(
                    f"sector {sigma} has Betti number {b} in degree {d + shift}, "
                    f"above the top degree {top}")
            right[d + shift] += b
    ok = tuple(right) == left.betti
    return DecompositionReport(spec, ok, left.betti, tuple(right), sectors)

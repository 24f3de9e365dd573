"""Exact sparse linear algebra over the rationals.

Sparse vectors are dicts mapping a column index, a non-negative int, to a
nonzero exact rational.  Ranks, memberships, witnesses and certificates
all come from one fraction-free kernel, `Echelon._reduce`: input is scaled
to integers once by the lcm of its denominators, pivot columns are
eliminated first to last in the echelon's column order with integer
updates, and the working row is rescaled only when a pivot does not divide
its entry.  Answers are scaled back once: ints where integral, Fractions
elsewhere.  Absorption order is deterministic (least column index, then
fewest entries, then input index) and every row is primitive with a
positive pivot, so all answers are reproducible.  `Echelon.clear` is
the one clearing step of every sweep: the Morse and isotypic rank routes
and the cell-level image echelons of membership.

`echelon_of_rows` orders the columns by increasing count of input rows
that touch them, ties by column index, before it eliminates: the static
column pre-ordering of sparse direct solvers (Davis-Gilbert-Larimore-Ng,
*A column approximate minimum degree ordering algorithm*, 2004).  Rarely
touched columns become pivots first, so fewer rows carry fill into the
busy ones: the cleared image echelon of d_2 on perm(6;3) holds 9,246
entries instead of the 32,169 of index order.  Rows are still absorbed
by least column index, which follows the cell enumeration; absorbing
them by least position in the count order instead doubles the time of
the width-2 degree-1 echelons.  An `Echelon` keeps its order: it stores
rows by position in it, and relabels every vector on the way in and
every residue and certificate on the way out.  A column that no input
row touches sits after all of them, so it stays distinct and is never a
pivot of those rows.

Tracking records each row as an integer combination of the input rows over
one positive denominator per row; that gives witnesses ("in the span").  It
does not change the eliminations, so tracked and untracked echelons have
identical rows.  `Echelon.extended` tracks only what it adds to an echelon.

Certifying functionals ("not in the span") come from a sparse triangular
solve over a column index (position -> the rows with an entry there): it
touches only the rows reachable from the functional's support, in the
manner of Gilbert-Peierls, *Sparse partial pivoting in time proportional
to arithmetic operations* (1988).  The index is built on the first
certificate and kept up to date by every later absorption, so echelons
that never certify pay nothing for it.  `Echelon.solve` answers both
questions from one reduction: coordinates when the vector lies in the
span, else a certificate.
"""

from __future__ import annotations

import copy
import heapq
import itertools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

SparseVec = Dict[int, int]


class CertificateError(ArithmeticError):
    """A computed answer failed its own exactness check."""


def _content(row: dict) -> int:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


def _divided(vec: dict, d) -> dict:
    """vec / d exactly: ints where integral, Fractions elsewhere."""
    if d == 1:
        return vec
    num, den = Fraction(d).as_integer_ratio()
    out = {}
    for c, v in vec.items():
        v *= den
        out[c] = v // num if v % num == 0 else Fraction(v, num)
    return out


class Echelon:
    """Integer row echelon with deterministic absorption, over a column order.

    Column order[p] sits at position p; a column c outside `order` sits at
    position len(order) + c, after all of them (a plain `Echelon()` has
    the empty order, so there position and column agree).  `order` is
    kept, not copied.  Rows, pivots and the column index are kept by
    position, so "least" below means first in the order; `to_columns` and
    `column` read them back by column.  Every method takes and returns
    vectors keyed by column.

    rows[i] is primitive with least position pivots_of[i], where its entry
    is positive; pivot_row maps that position back to i.  When tracking,
    rows[i] = sum combos[i][tag] * input_tag / dens[i], in an extension
    modulo the rows it started from, whose combos are empty.  Once a
    certificate has been asked for, rows_at[p] lists, in increasing order,
    the i with an entry of rows[i] at position p; until then it is None.
    """

    def __init__(self, track: bool = False, order: Sequence[int] = ()):
        self.order = order
        self.position = dict(zip(order, range(len(order))))
        self.rows: List[SparseVec] = []
        self.pivots_of: List[int] = []
        self.pivot_row: Dict[int, int] = {}
        self.track = track
        self.combos: List[SparseVec] = []
        self.dens: List[int] = []
        self.rows_at: Optional[Dict[int, List[int]]] = None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _positions(self, vec: dict) -> Tuple[SparseVec, int]:
        """(k * vec, k) keyed by position, for the least k >= 1 that makes
        every entry an integer."""
        pos, n = self.position, len(self.order)
        dens = [v.denominator for v in vec.values() if type(v) is not int]
        if not dens:
            return {pos.get(c, n + c): v for c, v in vec.items() if v}, 1
        k = lcm(*dens)
        return {pos.get(c, n + c): int(v * k) for c, v in vec.items() if v}, k

    def column(self, p: int) -> int:
        """The column at position p."""
        n = len(self.order)
        return self.order[p] if p < n else p - n

    def to_columns(self, vec: dict) -> dict:
        """A vector keyed by position, keyed by column instead (same order)."""
        order, n = self.order, len(self.order)
        return {order[p] if p < n else p - n: v for p, v in vec.items()}

    def _reduce(self, work: SparseVec, combo: Optional[SparseVec] = None,
                full: bool = False):
        """Eliminate pivot columns, least first, from the integer row `work`.

        Without `full` it stops at the first leading column that is not a
        pivot.  Returns (work', combo', s, den) with, for the same rationals
        q_i,  work' = s * work - sum q_i * rows[i]  and
        combo' / den = s * combo - sum q_i * combos[i] / dens[i].
        """
        pivot_row, rows = self.pivot_row, self.rows
        heap = [c for c in work if c in pivot_row] if full else list(work)
        heapq.heapify(heap)
        s = den = 1
        while heap:
            col = heapq.heappop(heap)
            w = work.get(col)
            if w is None:
                continue
            i = pivot_row.get(col)
            if i is None:
                break
            piv = rows[i]
            p = piv[col]
            q, r = divmod(w, p)
            if r:
                g = gcd(w, p)
                m, q = p // g, w // g
                work = {c: v * m for c, v in work.items()}
                s *= m
                if combo is not None:
                    combo = {t: v * m for t, v in combo.items()}
            for c, v in piv.items():
                if c in work:
                    nv = work[c] - q * v
                    if nv:
                        work[c] = nv
                    else:
                        del work[c]
                else:
                    work[c] = -q * v
                    if not full or c in pivot_row:
                        heapq.heappush(heap, c)
            if combo is not None:
                di = self.dens[i]
                if den % di:
                    f = di // gcd(den, di)
                    combo = {t: v * f for t, v in combo.items()}
                    den *= f
                f = q * (den // di)
                for t, v in self.combos[i].items():
                    nv = combo.get(t, 0) - f * v
                    if nv:
                        combo[t] = nv
                    else:
                        del combo[t]
            if r:
                g = _content(work)
                work = {c: v // g for c, v in work.items()}
                s, den = Fraction(s, g), den * g
        return work, combo, s, den

    def absorb(self, row: dict, tag: Optional[int] = None) -> bool:
        """Reduce `row` and keep the remainder; True when it added rank.

        `tag` names the input row in tracked combinations.
        """
        work, k = self._positions(row)
        combo = None
        if self.track:
            combo = {-1 - len(self.rows) if tag is None else tag: k}
        work, combo, _, den = self._reduce(work, combo)
        if not work:
            return False
        col, i = min(work), len(self.rows)
        g = _content(work) if work[col] > 0 else -_content(work)
        self.pivot_row[col] = i
        self.rows.append({c: v // g for c, v in work.items()})
        self.pivots_of.append(col)
        if self.rows_at is not None:
            for c in work:
                self.rows_at.setdefault(c, []).append(i)
        if combo is not None:
            den *= g
            h = gcd(_content(combo), den) * (-1 if den < 0 else 1)
            self.combos.append({t: v // h for t, v in combo.items()})
            self.dens.append(den // h)
        return True

    def extended(self, vecs: Iterable[dict]) -> Echelon:
        """A tracked copy that has absorbed each vec, tagged by position, and
        whose combos name only the vecs.  It shares `order`, `position` and
        the rows, not the lists or the column index; `self` is unchanged."""
        ext, n = copy.copy(self), self.rank
        ext.rows, ext.pivots_of = self.rows.copy(), self.pivots_of.copy()
        ext.pivot_row, ext.rows_at = self.pivot_row.copy(), None
        ext.track, ext.combos, ext.dens = True, [{}] * n, [1] * n
        for i, vec in enumerate(vecs):
            ext.absorb(vec, tag=i)
        return ext

    def residue(self, vec: dict) -> dict:
        """The remainder of `vec` after eliminating all pivot columns."""
        work, k = self._positions(vec)
        work, _, s, _ = self._reduce(work, full=True)
        return self.to_columns(_divided(work, s * k))

    def coordinates(self, vec: dict) -> Optional[dict]:
        """{input tag: c} with vec = sum c * input_row, or None off the span."""
        work, coords = self._tracked_reduce(vec)
        return None if work else coords

    def solve(self, vec: dict) -> Tuple[Optional[dict], Optional[dict]]:
        """(coordinates, None) when vec lies in the span, else (None, y) with
        y as `annihilator` gives it: one tracked reduction serves both."""
        work, coords = self._tracked_reduce(vec)
        return (None, self._annihilate(work)) if work else (coords, None)

    def _tracked_reduce(self, vec: dict) -> Tuple[SparseVec, Optional[dict]]:
        """(work, coordinates): vec reduced up to its first non-pivot
        position, and its coordinates when nothing is left, else None."""
        if not self.track:
            raise ValueError("coordinates need a tracked echelon")
        work, k = self._positions(vec)
        work, combo, s, den = self._reduce(work, {})
        if work:
            return work, None
        # 0 = s*k*vec - sum q_i rows[i]  and  combo/den = -sum q_i combos[i]/dens[i]
        return work, _divided(combo, -s * k * den)

    def _column_index(self) -> Dict[int, List[int]]:
        """`rows_at`, built from the rows on first use."""
        if self.rows_at is None:
            self.rows_at = {}
            for i, row in enumerate(self.rows):
                for c in row:
                    self.rows_at.setdefault(c, []).append(i)
        return self.rows_at

    def annihilator(self, vec: dict) -> Optional[dict]:
        """A functional y with y(row) = 0 for every echelon row, y(vec) != 0.

        None when vec lies in the span.  y is 1 on the residue's first
        column in the echelon's order, which is not a pivot, and supported
        elsewhere only on pivot columns.  That column is where a reduction
        that stops at the first non-pivot column stops.
        """
        work = self._reduce(self._positions(vec)[0])[0]
        return self._annihilate(work) if work else None

    def _annihilate(self, work: SparseVec) -> dict:
        """`annihilator` of a nonzero row that `_reduce` reduced up to its
        least position, which is not a pivot."""
        rows, rows_at, pivot_row = self.rows, self._column_index(), self.pivot_row
        # y = numerators / den; fix the dot product with each echelon row,
        # last pivot position first: rows with later pivots vanish on all
        # earlier positions, so each adjustment is final.  Only rows that
        # meet supp(y) can have a nonzero dot product; `dots` holds theirs,
        # and `heap` their pivots, negated
        first = min(work)
        y, den = {first: 1}, 1
        dots = {i: rows[i][first] for i in rows_at.get(first, ())}
        heap = [-self.pivots_of[i] for i in dots]
        heapq.heapify(heap)
        while heap:
            p = -heapq.heappop(heap)
            i = pivot_row[p]
            d = dots.pop(i)
            if not d:
                continue
            a = rows[i][p]
            if d % a:
                m = a // gcd(d, a)
                y = {c: v * m for c, v in y.items()}
                dots = {j: v * m for j, v in dots.items()}
                den *= m
                d *= m
            t = y[p] = -d // a
            for j in rows_at[p]:
                if j in dots:
                    dots[j] += rows[j][p] * t
                elif j != i:
                    dots[j] = rows[j][p] * t
                    heapq.heappush(heap, -self.pivots_of[j])
        return self.to_columns(_divided(y, den))

    def clear(self, rows: List[dict]) -> None:
        """Empty rows[j] at every pivot column j (Chen-Kerber's clearing),
        once each echelon row z is checked to lead with its pivot and to be
        a cycle: sum z_j * rows[j] = 0 in ints, rows[j] the boundary of
        column j.  Then, last pivot first, each pivot's boundary lies in the
        span of the non-pivots'.  A failed check raises CertificateError."""
        for z, p in zip(self.rows, self.pivots_of):
            dz: Dict[int, int] = {}
            for j, a in self.to_columns(z).items():
                for r, v in rows[j].items():
                    dz[r] = dz.get(r, 0) + a * v
            if not z.get(p) or min(z) != p or any(dz.values()):
                raise CertificateError(f"the echelon row with pivot column {self.column(p)} "
                                       "is not a cycle led by its pivot, so that boundary "
                                       "cannot be cleared")
        for p in self.pivots_of:
            rows[self.column(p)] = {}

    def certifies(self, y: dict, vec: dict) -> bool:
        """Whether y(vec) != 0 and y(row) = 0 for every echelon row that the
        column index says meets supp(y), summed from the rows themselves."""
        if not sum(v * y[c] for c, v in vec.items() if c in y):
            return False
        yk = self._positions(y)[0]
        rows, rows_at = self.rows, self._column_index()
        meeting = {i for c in yk for i in rows_at.get(c, ())}
        return not any(sum(v * yk[c] for c, v in rows[i].items() if c in yk)
                       for i in meeting)


def _count_order(rows: Sequence[dict]) -> List[int]:
    """The columns of `rows` by increasing count of rows that touch them,
    ties by column index.  A function of its own, so that the counts are
    freed before the echelon builds its position map (at cell(8;3), 20 MB
    less peak memory)."""
    count = Counter(itertools.chain.from_iterable(rows))
    return sorted(sorted(count), key=count.__getitem__)


def echelon_of_rows(rows: Sequence[dict], track: bool = False) -> Echelon:
    """Deterministic echelon of the given rows (tags are input positions),
    over the columns in increasing count of rows that touch them, ties by
    column index.  Rows are absorbed by least column index, then fewest
    entries, then input index."""
    ech = Echelon(track, _count_order(rows))
    order = sorted(range(len(rows)),
                   key=lambda i: (min(rows[i]) if rows[i] else -1, len(rows[i]), i))
    for i in order:
        if rows[i]:
            ech.absorb(rows[i], tag=i)
    return ech

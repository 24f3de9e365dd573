"""Exact sparse linear algebra over the rationals.

Sparse vectors are dicts mapping a column index to a nonzero exact
rational.  Ranks, memberships, witnesses and certificates all come from one
fraction-free kernel, `Echelon._reduce`: input is scaled to integers once
by the lcm of its denominators, pivot columns are eliminated least first
with integer updates, and the working row is rescaled only when a pivot
does not divide its entry.  Answers are scaled back once: ints where
integral, Fractions elsewhere.  Absorption order is deterministic (least
leading column, then fewest entries, then input index) and every row is
primitive with a positive pivot, so all answers are reproducible.

Tracking records each row as an integer combination of the input rows over
one positive denominator per row; that gives witnesses ("in the span").  It
does not change the eliminations, so tracked and untracked echelons have
identical rows.

Certifying functionals ("not in the span") come from a sparse triangular
solve over a column index (column -> the rows with an entry there): it
touches only the rows reachable from the functional's support, in the
manner of Gilbert-Peierls, *Sparse partial pivoting in time proportional
to arithmetic operations* (1988).  The index is built on the first
certificate and kept up to date by every later absorption, so echelons
that never certify pay nothing for it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

SparseVec = Dict[int, int]


def _content(row: dict) -> int:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


def _integral(vec: dict) -> Tuple[SparseVec, int]:
    """(k * vec, k) for the least k >= 1 that makes every entry an integer."""
    dens = [v.denominator for v in vec.values() if type(v) is not int]
    if not dens:
        return {c: v for c, v in vec.items() if v}, 1
    k = lcm(*dens)
    return {c: int(v * k) for c, v in vec.items() if v}, k


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
    """Integer row echelon with deterministic absorption.

    rows[i] is primitive with least column pivots_of[i], where its entry is
    positive; pivot_row maps that column back to i.  When tracking,
    rows[i] = sum combos[i][tag] * input_tag / dens[i].  Once a certificate
    has been asked for, rows_at[c] lists, in increasing order, the i with
    an entry of rows[i] at column c; until then it is None.
    """

    def __init__(self, track: bool = False):
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
        work, k = _integral(row)
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

    def residue(self, vec: dict) -> dict:
        """The remainder of `vec` after eliminating all pivot columns."""
        work, k = _integral(vec)
        work, _, s, _ = self._reduce(work, full=True)
        return _divided(work, s * k)

    def coordinates(self, vec: dict) -> Optional[dict]:
        """{input tag: c} with vec = sum c * input_row, or None off the span."""
        if not self.track:
            raise ValueError("coordinates need a tracked echelon")
        work, k = _integral(vec)
        work, combo, s, den = self._reduce(work, {})
        if work:
            return None
        # 0 = s*k*vec - sum q_i rows[i]  and  combo/den = -sum q_i combos[i]/dens[i]
        return _divided(combo, -s * k * den)

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

        None when vec lies in the span.  y is 1 on the least column of the
        residue, which is not a pivot, and supported elsewhere only on
        pivot columns.  That column is where a reduction that stops at the
        first non-pivot column stops.
        """
        work = self._reduce(_integral(vec)[0])[0]
        if not work:
            return None
        rows, rows_at, pivot_row = self.rows, self._column_index(), self.pivot_row
        # y = numerators / den; fix the dot product with each echelon row,
        # largest pivot first: rows with larger pivots vanish on all
        # earlier columns, so each adjustment is final.  Only rows that
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
        return _divided(y, den)

    def certifies(self, y: dict, vec: dict) -> bool:
        """Whether y(vec) != 0 and y(row) = 0 for every echelon row that the
        column index says meets supp(y), summed from the rows themselves."""
        if not sum(v * y[c] for c, v in vec.items() if c in y):
            return False
        yk = _integral(y)[0]
        rows, rows_at = self.rows, self._column_index()
        meeting = {i for c in yk for i in rows_at.get(c, ())}
        return not any(sum(v * yk[c] for c, v in rows[i].items() if c in yk)
                       for i in meeting)


def echelon_of_rows(rows: Sequence[dict], track: bool = False) -> Echelon:
    """Deterministic echelon of the given rows (tags are input positions)."""
    order = sorted(range(len(rows)),
                   key=lambda i: (min(rows[i]) if rows[i] else -1, len(rows[i]), i))
    ech = Echelon(track=track)
    for i in order:
        if rows[i]:
            ech.absorb(rows[i], tag=i)
    return ech


def rank_of_rows(rows: Sequence[dict]) -> int:
    return echelon_of_rows(rows).rank

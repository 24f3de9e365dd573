"""Boundary ranks of unit-weight ordered complexes, one irreducible at a time.

With unit weights every split sign depends on positions only, so
relabeling is a chain automorphism without sign and S_n acts freely on
the cells.  A degree-k cell is g . rep_c: c is a composition of n into
n - k block sizes (the orbit) and g the permutation that sends position j
to the index of the j-th flattened label, so C_k is Q[S_n]^{m_k} with one
generator rep_c per composition.  Each facet of rep_c is sign * h . rep_c',
where h only shuffles the positions of one block, and d_k acts on row
vectors over Q[S_n] by right multiplication with the matrix of those
signed h.

Young's seminormal form gives Q[S_n] = sum over partitions lambda of
M_{f_lambda}(Q) with rational entries, kept as int rows over one
denominator from the generators on.  Let R_lambda(d_k) be the
(m_k f) x (m_{k-1} f) block matrix with block (c, c') the sum of
sign * rho_lambda(h) over the facets of rep_c on c'; it is ranked as
scale * R_lambda(d_k), in ints.  Then
rank d_k = sum f_lambda * rank R_lambda(d_k), and the multiplicity of
V_lambda in H_k is m_k f - rank R_lambda(d_k) - rank R_lambda(d_{k+1}).
As rho_lambda is a homomorphism, R_lambda(d_{k+1}) R_lambda(d_k) = 0, so
the blocks clear as the cells do (`Echelon.clear`).

Conventions: the content of an entry is column - row of its box.  s_i
swaps i and i + 1 and fixes e_T when they share a row, negates it when
they share a column, and otherwise sends e_T to r e_T + beta e_T', with
r = 1 / (content(i+1) - content(i)), T' = s_i T, and beta = 1 when i sits
in a higher row than i + 1, else 1 - r^2.  A permutation p (p[j] the
image of j) is s_jr o ... o s_j1 when bubble-sorting p swaps j1, ..., jr,
so rho(p) = rho(s_jr) ... rho(s_j1).
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Iterator, List, Optional, Tuple

from .cells import ComplexSpec, compositions
from .chains import boundary_cell
from .linalg import echelon_of_rows


def partitions(n: int, cap: Optional[int] = None) -> Iterator[tuple]:
    """Partitions of n with parts at most cap, in reverse lex order: (n) first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if cap is None else cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def tableaux(shape: tuple) -> List[tuple]:
    """Standard tableaux of `shape`, each as the row of every entry 0, 1, ..."""
    grown = [((), (0,) * len(shape))]
    for _ in range(sum(shape)):
        grown = [(rows + (r,), lens[:r] + (lens[r] + 1,) + lens[r + 1:])
                 for rows, lens in grown for r, size in enumerate(shape)
                 if lens[r] < size and (r == 0 or lens[r - 1] > lens[r])]
    return [rows for rows, _ in grown]


def bubble_swaps(perm: tuple) -> List[int]:
    """Positions j1, ..., jr swapped by bubble-sorting perm."""
    p, out = list(perm), []
    for end in range(len(p) - 1, 0, -1):
        for j in range(end):
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
                out.append(j)
    return out


class Irrep:
    """Young's seminormal form of the irreducible of S_n indexed by `shape`.

    gens[i] is (rows, den) with rho(s_i) = rows / den, where s_i swaps the
    entries i and i + 1 (counted from 0) and rows[S] lists the (column,
    int) entries of row S.  Row T, with content difference d, holds d at T
    and, when |d| > 1, d^2 or d^2 - 1 at s_i T, all over d^2; den is the
    lcm of the d^2, to which every row is brought.
    """

    def __init__(self, shape: tuple):
        tabs = tableaux(shape)
        self.dim = len(tabs)
        index = {t: a for a, t in enumerate(tabs)}
        contents = []
        for t in tabs:
            filled = [0] * len(shape)
            content = []
            for r in t:
                content.append(filled[r] - r)
                filled[r] += 1
            contents.append(content)
        self.gens = []
        for i in range(sum(shape) - 1):
            diffs = [c[i + 1] - c[i] for c in contents]
            den = lcm(*(d * d for d in diffs))
            gen = []
            for t, d in zip(tabs, diffs):
                u = den // (d * d)
                row = [(index[t], d * u)]
                if abs(d) > 1:
                    # the entry of column T' = s_i T: its beta, taken in T'
                    # where i and i + 1 trade rows
                    swapped = t[:i] + (t[i + 1], t[i]) + t[i + 2:]
                    row.append((index[swapped], den if t[i + 1] < t[i] else den - u))
                gen.append(row)
            self.gens.append((gen, den))

    def matrix(self, perm: tuple) -> Tuple[List[dict], int]:
        """(rows, den) with rho(perm) = rows / den: sparse dicts of ints,
        in lowest terms (den >= 1 and coprime to every entry)."""
        rows, den = [{a: 1} for a in range(self.dim)], 1
        for i in reversed(bubble_swaps(perm)):
            gen, d = self.gens[i]
            nxt = []
            for row in rows:
                out = {}
                for s, v in row.items():
                    for t, x in gen[s]:
                        out[t] = out.get(t, 0) + v * x
                nxt.append({t: x for t, x in out.items() if x})
            rows, den = nxt, den * d
            g = gcd(den, *(x for row in rows for x in row.values()))
            if g > 1:
                rows, den = [{t: x // g for t, x in row.items()} for row in rows], den // g
        return rows, den


def orbits(spec: ComplexSpec, degree: int) -> list:
    """The compositions c of the degree-`degree` orbits, in lex order."""
    n = spec.n
    return list(compositions(n, n - degree, n if spec.width is None else spec.width))


def facet_table(spec: ComplexSpec, degree: int) -> list:
    """For each orbit c in degree `degree`, the facets of rep_c as
    (sign, index of c' among the orbits below, h)."""
    pos = {a: j for j, a in enumerate(spec.labels)}
    below = {c: i for i, c in enumerate(orbits(spec, degree - 1))}
    table = []
    for sizes in orbits(spec, degree):
        it = iter(spec.labels)
        rep = tuple(tuple(next(it) for _ in range(s)) for s in sizes)
        table.append([(sign, below[tuple(map(len, facet))],
                       tuple(pos[a] for block in facet for a in block))
                      for facet, sign in boundary_cell(spec, rep)])
    return table


def block_ranks(spec: ComplexSpec, degrees: Iterable[int]) -> list:
    """[(shape, f, {k: rank R_shape(d_k)})] for every partition of n.

    `spec` must be a unit-weight ordered complex and every degree k must
    have 1 <= k <= top degree.  The facet tables are built once, and each
    rho(h) once per shape, for all the degrees together.  A block is built
    in ints: times the lcm `scale` of the dens of the rho(h) it uses, each
    facet adds sign * (scale // den) times the rows of rho(h), so every
    row is a positive multiple of that of R_shape(d_k) and ranks alike.
    Each shape ranks the asked degrees top down, clearing k by k + 1 when
    both were asked.
    """
    tables = {k: facet_table(spec, k) for k in sorted(degrees, reverse=True)}
    shuffles = {h for table in tables.values() for facets in table for _, _, h in facets}
    out = []
    for shape in partitions(spec.n):
        irrep = Irrep(shape)
        f = irrep.dim
        mats = {h: irrep.matrix(h) for h in shuffles}
        ranks = {}
        for k, table in tables.items():
            scale = lcm(*{mats[h][1] for facets in table for _, _, h in facets})
            rows = []
            for facets in table:
                terms = [(sign * (scale // mats[h][1]), below * f, mats[h][0])
                         for sign, below, h in facets]
                for a in range(f):
                    row = {}
                    for c, base, m in terms:
                        for b, v in m[a].items():
                            row[base + b] = row.get(base + b, 0) + c * v
                    rows.append({col: v for col, v in row.items() if v})
            if k + 1 in ranks:
                above.clear(rows)
            above = echelon_of_rows(rows)
            ranks[k] = above.rank
        out.append((shape, f, ranks))
    return out

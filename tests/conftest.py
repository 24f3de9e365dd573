"""Shared helpers for the test suite.

Most tests pin small exact values computed once and checked into the
suite; the helpers here only cover the recurring chores of building
wheels on consecutive label blocks, listing the orbit S(sigma) of a
permutation, sampling random chains, summing a boundary in the
coefficients' own number types and running a script under `python -O`.
One is the oracle for the shape templates of `cycles`: generator and word
cycles built directly on their own labels, with no template or relabeling.
Two are independent oracles for `linalg`: the full-scan certificate that
`Echelon.annihilator` replaced, and a rank modulo a prime.  One is the
oracle for `Irrep.matrix`: the seminormal form in Fractions that its
integer rows replaced.  One checks the multiplicities of the isotypic path
at unrestricted width against a theorem: the Grothendieck-Lefschetz
identity for Conf_n(C), with Murnaghan-Nakayama characters.
"""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import comb, gcd, perm, prod
from pathlib import Path

import pytest

from stripconf.cells import cell_complex, enumerate_cells, wheel_decomposition
from stripconf.chains import ChainVector, boundary, boundary_cell, concat_all
from stripconf.cycles import AvgFilter, Wheel, _spun, _top_cell
from stripconf.equivariant import bubble_swaps, tableaux
from stripconf.linalg import _divided


def wheels_on_blocks(sizes, start=1):
    """Proper wheels on consecutive label blocks: sizes (2,1) -> W(2,1), W(3)."""
    wheels, nxt = [], start
    for n in sizes:
        wheels.append(Wheel(tuple(range(nxt + n - 1, nxt - 1, -1))))
        nxt += n
    return tuple(wheels)


def direct_generator_cycle(trees, width, averaged=False, weights=None):
    """A generator chain built on its own labels: the spun top cell on one
    tree, or the spun boundary of the top cell on two or more trees
    (through q when `averaged`); `weights` in ascending label order."""
    top = _top_cell(trees)
    return _spun(top if len(trees) == 1 else boundary(top), trees, width, averaged, weights)


def direct_word_cycle(word, width):
    """The concatenation of a word's factor cycles, each built directly on
    the word's own labels, a filter on two wheels in its display form."""
    chains = []
    for f in word.factors:
        wheels = (f,) if isinstance(f, Wheel) else f.wheels
        z = direct_generator_cycle(tuple(w.tree() for w in wheels), width,
                                   isinstance(f, AvgFilter) and len(wheels) > 2)
        chains.append(-z if len(wheels) == 2 and wheels[0].size % 2 else z)
    return concat_all(chains, width)


def s_of_sigma(sigma) -> tuple:
    """All permutations containing the wheels of sigma as contiguous segments.

    These are the concatenations of sigma's wheels in every order; there are
    (#wheels)! of them.  Sorted lexicographically.
    """
    wheels = wheel_decomposition(sigma).wheels
    return tuple(sorted({tuple(a for w in order for a in w)
                         for order in itertools.permutations(wheels)}))


def random_chain(spec, degree, rng, terms=4):
    cells = enumerate_cells(spec, degree)
    if not cells:
        return ChainVector.zero(spec, degree)
    coeffs = {}
    for cell in rng.sample(cells, min(terms, len(cells))):
        coeffs[cell] = rng.choice((-2, -1, 1, 2, 3))
    return ChainVector(spec, degree, coeffs)


def rational_boundary(chain):
    """The boundary of a chain summed facet by facet in its coefficients' own
    types: an int where only ints reach a facet, else a Fraction.  The
    reference for the integer kernel of `chains.boundary`."""
    out: dict = {}
    for cell, v in chain.coeffs.items():
        for facet, s in boundary_cell(chain.spec, cell):
            out[facet] = out.get(facet, 0) + v * s
    return ChainVector(chain.spec, chain.degree - 1, out)


def full_scan_annihilator(ech, vec):
    """`Echelon.annihilator` as it was before its column index: the dot
    product with every echelon row, each pivot visited last first in the
    echelon's column order.  The reference for its answer's keys, values,
    value types and key order, read back by column."""
    work = ech._reduce(ech._positions(vec)[0], full=True)[0]
    if not work:
        return None
    y, den = {min(work): 1}, 1
    for p in sorted(ech.pivot_row, reverse=True):
        row = ech.rows[ech.pivot_row[p]]
        d = sum(v * y[c] for c, v in row.items() if c in y)
        if d:
            a = row[p]
            if d % a:
                m = a // gcd(d, a)
                y = {c: v * m for c, v in y.items()}
                den *= m
                d *= m
            y[p] = -d // a
    return ech.to_columns(_divided(y, den))


def fraction_matrix(shape, perm):
    """rho_shape(perm) as `Irrep.matrix` built it before its integer rows:
    each seminormal generator with Fraction entries (1/d on the diagonal;
    1, or 1 - 1/d^2, at s_i T), multiplied out one bubble swap at a time.
    The reference for the values of `(rows, den)`."""
    tabs = tableaux(shape)
    index = {t: a for a, t in enumerate(tabs)}
    contents = []
    for t in tabs:
        filled = [0] * len(shape)
        content = []
        for r in t:
            content.append(filled[r] - r)
            filled[r] += 1
        contents.append(content)
    gens = []
    for i in range(sum(shape) - 1):
        gen = []
        for t, c in zip(tabs, contents):
            d = c[i + 1] - c[i]
            row = [(index[t], d if abs(d) == 1 else Fraction(1, d))]
            if abs(d) > 1:
                swapped = t[:i] + (t[i + 1], t[i]) + t[i + 2:]
                row.append((index[swapped],
                            1 if t[i + 1] < t[i] else 1 - Fraction(1, d * d)))
            gen.append(row)
        gens.append(gen)
    rows = [{a: 1} for a in range(len(tabs))]
    for i in reversed(bubble_swaps(perm)):
        nxt = []
        for row in rows:
            out = {}
            for s, v in row.items():
                for t, x in gens[i][s]:
                    out[t] = out.get(t, 0) + v * x
            nxt.append({t: x for t, x in out.items() if x})
        rows = nxt
    return rows


def _partitions(n, most=None):
    """Partitions of n, each as a non-increasing tuple."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def mn_character(shape, cycle_type) -> int:
    """chi_shape at a permutation of `cycle_type`, by Murnaghan-Nakayama.
    On the beta set of the shape, stripping a rim hook of length r moves a
    bead from b down to a free b - r, with a sign per bead passed."""
    return _strip_hooks(frozenset(part + len(shape) - 1 - i for i, part in enumerate(shape)),
                        tuple(cycle_type))


def _strip_hooks(beads, cycle_type) -> int:
    if not cycle_type:
        return 1
    r, rest = cycle_type[0], cycle_type[1:]
    return sum((-1) ** sum(b - r < c < b for c in beads) * _strip_hooks(beads - {b} | {b - r}, rest)
               for b in beads if b >= r and b - r not in beads)


def _irreducibles_over_fq(d, q) -> int:
    """M_d(q), the number of monic irreducible polynomials of degree d over
    F_q, from q^d = sum over e | d of e * M_e(q)."""
    return (q ** d - sum(e * _irreducibles_over_fq(e, q) for e in range(1, d) if d % e == 0)) // d


def assert_grothendieck_lefschetz(n, iso):
    """For every partition shape of n and q = 2..n+3, the twisted point count
    of the squarefree monic polynomials of degree n over F_q,
        sum over cycle types mu of chi_shape(mu) prod_d C(M_d(q), m_d(mu)),
    equals sum_k (-1)^k q^(n-k) mult_shape(H_k) for `iso`, the isotypic
    profile of cell_complex(n, None), which models Conf_n(C) (its cohomology
    is pure of Tate type; Church-Ellenberg-Farb 2014, Lehrer 1987).  Summed
    with the weights dim V(shape) both sides are q(q-1)...(q-n+1), which
    checks the characters first."""
    shapes = list(_partitions(n))
    assert sorted(iso.shapes) == sorted(shapes)
    dims = dict(zip(iso.shapes, iso.dims))
    for q in range(2, n + 4):
        # squarefree monic polynomials whose irreducible factors have degrees mu
        counts = {mu: prod(comb(_irreducibles_over_fq(d, q), mu.count(d)) for d in set(mu))
                  for mu in shapes}
        falling = 0
        for i, shape in enumerate(iso.shapes):
            twisted = sum(mn_character(shape, mu) * counts[mu] for mu in shapes)
            euler = sum((-1) ** k * q ** (n - k) * mult[i]
                        for k, mult in enumerate(iso.multiplicities))
            assert twisted == euler, (shape, q)
            falling += dims[shape] * twisted
        assert falling == perm(q, n)


def assert_identical(got, want):
    """Equal dicts with the same key order and the same int/Fraction types
    (1 == Fraction(1), so equality alone does not see the types)."""
    assert got == want
    if got is not None:
        assert [(c, type(v)) for c, v in got.items()] == \
            [(c, type(v)) for c, v in want.items()]


def rank_mod_p(rows, p=2**31 - 1):
    """Rank over GF(p) of integer rows, by plain Gauss elimination with
    monic pivots: an implementation that shares nothing with `linalg`.
    It is at most the rank over Q, and equal unless p divides every
    maximal nonzero minor."""
    pivots = {}  # lead column -> reduced row with entry 1 there
    for row in rows:
        v = {c: x % p for c, x in row.items() if x % p}
        while v:
            lead = min(v)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(v[lead], -1, p)
                pivots[lead] = {c: x * inv % p for c, x in v.items()}
                break
            f = v[lead]
            for c, x in piv.items():
                t = (v.get(c, 0) - f * x) % p
                if t:
                    v[c] = t
                else:
                    v.pop(c, None)
    return len(pivots)


def run_optimized(script: str) -> list:
    """Run a script under `python -O`, which strips asserts, with the
    package importable; it must exit cleanly.  Returns the printed words."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(script)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


@pytest.fixture
def rng():
    return random.Random(20240817)


def pytest_collection_modifyitems(config, items):
    if os.environ.get("RUN_STRETCH") == "1":
        return
    skip = pytest.mark.skip(reason="stretch computation, enable with RUN_STRETCH=1")
    for item in items:
        if "stretch" in item.keywords:
            item.add_marker(skip)


def pytest_terminal_summary(terminalreporter):
    """One line per acceptance criterion, immune to output capture."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "_RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for text in lines:
            terminalreporter.write_line(text)

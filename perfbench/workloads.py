"""The four benchmark workloads: seeded inputs, one timed pass, and checks.

Each workload is a triple of functions:

* ``make(seed)`` builds the inputs from the seed alone.  It touches no
  library cache that the pass relies on, so the pass stays cold.
* ``run(inputs)`` is the timed pass: a list of operations, each one call
  into the library.  It returns one result per operation and the CPU
  seconds of each call with the speed kernel's time around it (see
  ``timed_calls``).  An exception counts as a failed operation, not a
  crash.
* ``check(inputs, results)`` runs after timing has stopped and returns the
  number of operations whose answer is wrong.  Every check is an explicit
  comparison, never an ``assert``, so the gate still works under
  ``python -O``.  A check that raises on an answer counts that answer as
  wrong (see ``count_wrong``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from stripconf import (AM, AMW, AvgFilter, ChainVector, GeneratorWord, Wheel,
                       act, basis_change, basis_cycle,
                       boundary, boundary_matrix, cell_complex,
                       enumerate_basis, express, homology_profile,
                       is_boundary, parse_weighted_set, permutohedron,
                       quotient_reduce, verify_basis, word_cycle)
from stripconf.cells import cell_index
from stripconf.homology import boundary_rank
from speed import EVERY_S, WINDOW, Speedometer

REWRITE_DIGESTS = Path(__file__).resolve().parent / "rewrite_digests.json"


class Failed:
    """Stands in for the result of an operation that raised."""

    def __init__(self, error: BaseException):
        self.error = f"{type(error).__name__}: {error}"

    def __repr__(self):
        return f"Failed({self.error})"


def timed_calls(ops):
    """Run zero-argument callables in order.

    Returns the results and, per call, (CPU seconds, reference seconds):
    the call's process CPU time and the speed kernel's time around it (see
    speed.py), sampled before the first call, after the last, and between
    calls at least every speed.EVERY_S of timed CPU time.  CPU time, not
    wall time: the library is single-threaded and does no I/O, so the two
    agree on an idle machine, but only CPU time leaves out the time a
    virtual machine's host steals from it.
    """
    meter = Speedometer()
    meter.sample(WINDOW)
    results, spans = [], []
    since = 0.0
    for op in ops:
        if since >= EVERY_S:
            meter.sample()
            since = 0.0
        t0 = time.process_time()
        try:
            out = op()
        except Exception as exc:  # a raising operation is a failed operation
            out = Failed(exc)
        t1 = time.process_time()
        since += t1 - t0
        spans.append((t0, t1))
        results.append(out)
    meter.sample(WINDOW)
    return results, [(t1 - t0, meter.reference(t0, t1)) for t0, t1 in spans]


def count_wrong(pairs, ok) -> int:
    """How many (input, result) pairs fail `ok(input, result)`.

    A Failed result is wrong without asking `ok`.  An exception raised by
    `ok` counts against that one answer: a malformed answer can make the
    library's own functions raise while it is checked.
    """
    bad = 0
    for item, out in pairs:
        try:
            right = not isinstance(out, Failed) and bool(ok(item, out))
        except Exception:
            right = False
        bad += not right
    return bad


def canonical_word(word: GeneratorWord) -> tuple:
    """The factors of a word as plain tuples of labels, e.g.
    (("W", (2, 1)), ("AvgFilter", ((3,), (4,), (5,))))."""
    return tuple(("W", f.labels) if isinstance(f, Wheel)
                 else (type(f).__name__, tuple(w.labels for w in f.wheels))
                 for f in word.factors)


def digest(pairs) -> str:
    """A short digest of (key, rational coefficient) pairs, the keys plain
    tuples such as canonical_word gives; independent of the pairs' order
    and of how the library prints words."""
    canon = sorted((key, (Fraction(c).numerator, Fraction(c).denominator))
                   for key, c in pairs)
    return hashlib.sha256(repr(canon).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# betti_ladder: cold Betti numbers of four complexes


def _weighted_cell():
    labels, weights = parse_weighted_set("1 2:2 3 4 5")
    return cell_complex(labels, 3, weights)


# (name, spec factory, expected Betti numbers).  Every rank takes under
# half a second, so each is timed many times in a run; cell(6;3) and the
# weighted complex on six labels have ranks of 1.4-3.2 s.
LADDER = (
    ("cell(5;3)", lambda: cell_complex(5, 3), (1, 10, 169, 40)),
    ("cell(6;2)", lambda: cell_complex(6, 2), (1, 351, 1160, 90)),
    ("perm(6;3)", lambda: permutohedron(6, 3), (1, 0, 49, 0, 0)),
    ("cell(1 2:2 3 4 5;3)", _weighted_cell, (1, 61, 124, 16)),
)


def ladder_ops(ladder):
    """Operations (name, spec, betti, d): boundary_rank(spec, d) for d below
    the top degree, then homology_profile(spec) (d is None), which ranks
    the top degree itself.  That is the order homology_profile works in,
    so together they do its work, in pieces that are timed one by one."""
    ops = []
    for name, factory, betti in ladder:
        spec = factory()
        ops.extend((name, spec, betti, d) for d in range(1, spec.top_degree()))
        ops.append((name, spec, betti, None))
    return ops


def make_betti_ladder(seed: int):
    """The fixed ladder; the seed changes nothing here."""
    return ladder_ops(LADDER)


def run_betti_ladder(ops):
    return timed_calls([lambda s=spec, d=d: homology_profile(s) if d is None
                        else boundary_rank(s, d) for _, spec, _, d in ops])


def _profile_ok(expected, prof) -> bool:
    euler_cells = sum((-1) ** d * c for d, c in enumerate(prof.cells))
    euler_betti = sum((-1) ** d * b for d, b in enumerate(prof.betti))
    return tuple(prof.betti) == expected and euler_cells == euler_betti


def check_betti_ladder(ops, results):
    """Profiles against the frozen Betti numbers and Euler characteristic;
    each rank against the rank its complex's profile reports."""
    profiles = {name: out for (name, _, _, d), out in zip(ops, results) if d is None}

    def ok(op, out):
        name, _, betti, d = op
        if d is None:
            return _profile_ok(betti, out)
        prof = profiles[name]
        return not isinstance(prof, Failed) and out == prof.ranks[d]

    return count_wrong(zip(ops, results), ok)


# ---------------------------------------------------------------------------
# witness_queries: is_boundary with witnesses and certificates

# (n, width, degrees queried): the degrees whose tracked echelon is built
# in under a quarter of a second, so each query, including the one that
# builds the echelons, is timed many times in a run.  Degrees 0 and 1 of
# cell(6;2) take 5.3 s and 2.2 s, degree 1 of cell(5;3) 1.3 s.
WITNESS_COMPLEXES = ((5, 2, (0, 1)), (5, 3, (0, 2)), (6, 2, (2,)))
QUERIES = 30      # of each kind, boundary and certificate, per (complex, degree)
CHAIN_CELLS = 8   # cells in each random (k+1)-chain


def random_cell(rng: random.Random, n: int, width: int, degree: int):
    """A uniformly drawn block shape and ordering of a cell of cell(n; width).

    Built directly from labels so that drawing inputs enumerates nothing.
    """
    blocks = n - degree
    while True:
        sizes = [rng.randint(1, width) for _ in range(blocks)]
        if sum(sizes) == n:
            break
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    cell, at = [], 0
    for s in sizes:
        cell.append(tuple(labels[at:at + s]))
        at += s
    return tuple(cell)


def random_boundary(rng: random.Random, spec, n: int, width: int, degree: int):
    """The boundary of a random (degree+1)-chain of CHAIN_CELLS cells with
    coefficients +-1; nonzero.  One query then reduces many cells, so its
    cost varies little with which cells were drawn, and the latency
    percentiles vary little with the seed."""
    while True:
        coeffs = {}
        for _ in range(CHAIN_CELLS):
            cell = random_cell(rng, n, width, degree + 1)
            coeffs[cell] = coeffs.get(cell, 0) + rng.choice((-1, 1))
        z = boundary(ChainVector(spec, degree + 1, coeffs))
        if not z.is_zero():
            return z


def make_witness_queries(seed: int):
    """Queries as (group, chain, expect_boundary); groups are (spec, degree).

    The batch is shuffled, then within every group the first query is made
    a certificate query.  That query builds both the tracked and the plain
    echelon of its group, so every seed has exactly one echelon-building
    call per group and the latency percentiles compare like with like.
    """
    rng = random.Random(seed)
    groups, queries = [], []
    for n, width, degrees in WITNESS_COMPLEXES:
        spec = cell_complex(n, width)
        for k in degrees:
            g = len(groups)
            groups.append((spec, k))
            words = enumerate_basis(n, width, k, AMW)
            for _ in range(QUERIES):
                queries.append((g, random_boundary(rng, spec, n, width, k), True))
            for _ in range(QUERIES):
                z = random_boundary(rng, spec, n, width, k)
                cyc = basis_cycle(rng.choice(words), width)
                queries.append((g, z + cyc.scale(rng.choice((-1, 1))), False))
    rng.shuffle(queries)
    first_cert = {}
    for i, (g, _, expect) in enumerate(queries):
        if not expect and g not in first_cert:
            first_cert[g] = i
    seen = set()
    for i, (g, _, _) in enumerate(queries):
        if g not in seen:
            seen.add(g)
            j = first_cert[g]
            queries[i], queries[j] = queries[j], queries[i]
    return groups, queries


def run_witness_queries(inputs):
    _, queries = inputs
    return timed_calls([lambda z=z: is_boundary(z, want_witness=True)
                        for _, z, _ in queries])


def certificate_ok(cert: dict, z: ChainVector, index: dict, rows_of: dict) -> bool:
    """Nonzero on z and zero on every column of d_{k+1}.

    `index` numbers the k-cells; `rows_of[r]` lists the (column, value)
    entries of row r of d_{k+1}.  Columns without an entry in the support
    of the certificate pair with it to zero, so only the others are summed.
    """
    if sum((Fraction(v) * Fraction(z.coeffs.get(c, 0)) for c, v in cert.items()),
           Fraction(0)) == 0:
        return False
    dots = defaultdict(Fraction)
    for cell, v in cert.items():
        if cell not in index:
            return False
        for c, entry in rows_of.get(index[cell], ()):
            dots[c] += Fraction(v) * entry
    return not any(dots.values())


def check_witness_queries(inputs, results):
    groups, queries = inputs
    gate = {}  # group -> (k-cell index, rows of d_{k+1}), built on demand

    def ok(query, ans):
        g, z, expect = query
        spec, k = groups[g]
        if bool(ans.is_boundary) != expect:
            return False
        if expect:
            w = ans.witness
            return w is not None and w.degree == k + 1 and boundary(w) == z
        if g not in gate:
            rows_of = defaultdict(list)
            for r, c, v in boundary_matrix(spec, k + 1).triplets:
                rows_of[r].append((c, v))
            gate[g] = (cell_index(spec, k), rows_of)
        return bool(ans.certificate) and certificate_ok(ans.certificate, z, *gate[g])

    return count_wrong(zip(queries, results), ok)


# ---------------------------------------------------------------------------
# basis_verify: both basis styles in every degree, then one change of basis

# (n, width, Betti numbers by degree): every basis of cell(n; width) in
# degree k must have exactly betti[k] words, in both styles.  cell(6;2)
# and basis_change(6, 3, 4) are left out: single calls there take 1-4 s,
# too long to be timed many times in a run.
BASIS_COMPLEXES = (
    (5, 2, (1, 111, 110)),
    (5, 3, (1, 10, 169, 40)),
)
BASIS_CHANGE = (5, 3, 3)
BASIS_CHANGE_DIGEST = "a1c71f04ede3bee4"  # change_digest(basis_change(5, 3, 3))


def make_basis_verify(seed: int):
    """Fixed tasks (n, width, betti, k, style), one verify_basis call each:
    every degree of every complex in both styles.  The seed changes
    nothing."""
    return [(n, width, betti, k, style) for n, width, betti in BASIS_COMPLEXES
            for k in range(len(betti)) for style in (AMW, AM)]


def run_basis_verify(tasks):
    ops = [lambda t=t: verify_basis(t[0], t[1], t[3], t[4]) for t in tasks]
    ops.append(lambda: basis_change(*BASIS_CHANGE))
    return timed_calls(ops)


def report_ok(task, rep) -> bool:
    """The report is for the asked degree and style, counts the frozen
    Betti number twice over (words and the library's own betti), and
    finds the words independent."""
    _, _, betti, k, style = task
    return ((rep.degree, rep.style) == (k, style)
            and rep.count == rep.betti == betti[k] and rep.independent)


def change_digest(change) -> str:
    """Digest of the nonzero entries of a change-of-basis matrix, each
    keyed by its (amw word, am word) pair."""
    return digest(((canonical_word(a), canonical_word(b)), c)
                  for a, row in zip(change.amw_words, change.matrix)
                  for b, c in zip(change.am_words, row) if c)


def _change_ok(_, change) -> bool:
    return change.triangular is True and change_digest(change) == BASIS_CHANGE_DIGEST


def check_basis_verify(tasks, results):
    return (count_wrong(zip(tasks, results[:-1]), report_ok)
            + count_wrong([(BASIS_CHANGE, results[-1])], _change_ok))


# ---------------------------------------------------------------------------
# rewrite: act then quotient_reduce on generator words

REWRITE_LABELS = (5, 9)
REWRITE_POOL = 12      # frozen relabelings of every word shape
REWRITE_ROUNDS = 3     # of them, drawn by the seed, run in every pass
EXPRESS_MAX_LABELS = 5


def filter_shapes(width: int):
    """Wheel sizes (ascending) of admissible, nontrivial filters on 3+ wheels."""
    out = []

    def grow(sizes):
        total = sum(sizes)
        if len(sizes) >= 3 and total > width and total - sizes[0] <= width:
            out.append(tuple(sizes))
        for s in range(sizes[-1] if sizes else 1, width + 1):
            if total + s - (sizes[0] if sizes else s) <= width:
                grow(sizes + [s])

    grow([])
    return out


def word_shapes():
    """Every (width, factor plan) on 5 to 9 labels, in a fixed order.

    A plan puts 1-4 bare wheels (sizes up to the width) in front of one or
    two admissible, nontrivial filters on three or more wheels; with two
    filters the bare wheels are split between them.  Each plan is a list
    of ("W", size) and ("AF", sizes).
    """
    lo, hi = REWRITE_LABELS
    out = []
    for width in (2, 3, 4):
        shapes = filter_shapes(width)
        for nbare in range(1, 5):
            for bare in itertools.product(range(1, width + 1), repeat=nbare):
                for nfilters in (1, 2):
                    for cut in range(1, nbare) if nfilters == 2 else (nbare,):
                        for fs in itertools.product(shapes, repeat=nfilters):
                            if not lo <= sum(bare) + sum(map(sum, fs)) <= hi:
                                continue
                            groups = (bare[:cut], bare[cut:]) if nfilters == 2 else (bare,)
                            plan = []
                            for ws, f in zip(groups, fs):
                                plan.extend(("W", s) for s in ws)
                                plan.append(("AF", f))
                            out.append((width, plan))
    return out


def shape_word(plan):
    """The word of a plan on consecutive labels, left to right.

    Bare wheels get smaller labels than the filters after them, so they are
    outranked and reduce() has to push them through (R5) and reorder them
    (R2).  Returns the word and the label set of each factor.
    """
    nxt = 1
    factors, blocks = [], []

    def wheel(size):
        nonlocal nxt
        labels = tuple(range(nxt + size - 1, nxt - 1, -1))  # proper: largest first
        nxt += size
        return Wheel(labels)

    for kind, size in plan:
        if kind == "W":
            factors.append(wheel(size))
        else:
            factors.append(AvgFilter(tuple(sorted((wheel(s) for s in size),
                                                  key=Wheel.rank_key))))
        blocks.append(GeneratorWord((factors[-1],)).labels())
    return GeneratorWord(tuple(factors)), blocks


def rewrite_pool():
    """For every word shape, REWRITE_POOL items (word, mapping, d, width),
    the same for every seed; rewrite_digests.json freezes their normal forms.

    A mapping permutes the labels inside each factor of the word.  That
    makes wheels improper and reorders filter wheels, so act() has to
    properize (R1) and re-sort (R3), while the word keeps the rewriting
    load of its shape.  d is the quotient order, 0 or 1; words on 5 labels
    use d = 0 so the check can compare classes.
    """
    rng = random.Random(0)
    pool = []
    for width, plan in word_shapes():
        word, blocks = shape_word(plan)
        d_max = 0 if len(word.labels()) <= EXPRESS_MAX_LABELS else 1
        items = []
        for _ in range(REWRITE_POOL):
            mapping = {}
            for block in blocks:
                image = list(block)
                rng.shuffle(image)
                mapping.update(zip(block, image))
            items.append((word, mapping, rng.randint(0, d_max), width))
        pool.append(items)
    return pool


def make_rewrite(seed: int):
    """Items (word, mapping, d, width, (shape, slot)): for every word shape,
    REWRITE_ROUNDS distinct items of its pool, drawn and shuffled by the
    seed."""
    rng = random.Random(seed)
    pool = rewrite_pool()
    picks = [(s, j) for s in range(len(pool))
             for j in rng.sample(range(REWRITE_POOL), REWRITE_ROUNDS)]
    rng.shuffle(picks)
    return [(*pool[s][j], (s, j)) for s, j in picks]


def run_rewrite(items):
    return timed_calls([lambda it=it: quotient_reduce(act(it[1], it[0]), it[2], it[3])
                        for it in items])


def normal_form_digest(out) -> str:
    return digest((canonical_word(w), c) for w, c in out.items())


def same_class(word, mapping, width, reduced) -> bool:
    """The relabeled word and its normal form differ by a boundary."""
    relabeled = act(mapping, word)
    chain = relabeled.cycle(width)
    basis = [word_cycle(w, width) for w, _ in reduced.items()]
    res = express(chain, basis)
    return res.ok and list(res.coefficients) == [c for _, c in reduced.items()]


def normal_form_ok(item, out, frozen) -> bool:
    """A fixed point of quotient_reduce whose digest is the frozen one; on
    at most EXPRESS_MAX_LABELS labels with d = 0 also in the class of the
    relabeled word."""
    word, mapping, d, width, (s, j) = item
    if quotient_reduce(out, d, width) != out or normal_form_digest(out) != frozen[s][j]:
        return False
    return (d != 0 or len(word.labels()) > EXPRESS_MAX_LABELS
            or same_class(word, mapping, width, out))


def frozen_digests():
    """Per word shape, the digests of its pool items' normal forms."""
    shapes = json.loads(REWRITE_DIGESTS.read_text())["shapes"]
    return [shape["digests"] for shape in shapes]


def check_rewrite(items, results):
    frozen = frozen_digests()
    return count_wrong(zip(items, results),
                       lambda item, out: normal_form_ok(item, out, frozen))


WORKLOADS = {
    "betti_ladder": (make_betti_ladder, run_betti_ladder, check_betti_ladder),
    "witness_queries": (make_witness_queries, run_witness_queries, check_witness_queries),
    "basis_verify": (make_basis_verify, run_basis_verify, check_basis_verify),
    "rewrite": (make_rewrite, run_rewrite, check_rewrite),
}

"""Self-test of the benchmark's correctness gate.

    PYTHONPATH=src python3 perfbench/selftest.py      # also try: python3 -O

Feeds the workload checks answers that are right and then deliberately
wrong ones, and fails unless the gate accepts the first and counts each
wrong one: a flipped witness coefficient, a certificate that does not
vanish on one column of the boundary matrix, a wrong Betti number (with
the Euler characteristic kept), basis reports that agree only with
themselves, a changed rewrite coefficient on a small and on a large word,
and a rewrite answer that makes the check itself raise.  It also checks
that predictions.json names only workloads and metrics that BENCHMARK.json
declares.  Small inputs; runs in a few seconds.  Exit code 0 when every
case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import workloads as W
from stripconf import (AMW, GeneratorWord, Wheel, WordCombination, basis_cycle,
                       boundary_matrix, cell_complex, enumerate_basis)
from stripconf.basis import BasisReport
from stripconf.cells import enumerate_cells

HERE = Path(__file__).resolve().parent


def witness_cases(report):
    spec, k = cell_complex(4, 2), 1
    rng = random.Random(7)
    word = enumerate_basis(4, 2, k, AMW)[0]
    z_bound = W.random_boundary(rng, spec, 4, 2, k)
    z_cert = W.random_boundary(rng, spec, 4, 2, k) + basis_cycle(word, 2)
    inputs = ([(spec, k)], [(0, z_cert, False), (0, z_bound, True)])
    results, _ = W.run_witness_queries(inputs)
    report("witness: correct answers pass", W.check_witness_queries(inputs, results) == 0)

    cert_ans, wit_ans = results
    cell, v = next(iter(sorted(wit_ans.witness.coeffs.items())))
    flipped = dict(wit_ans.witness.coeffs)
    flipped[cell] = -v
    bad_witness = dataclasses.replace(
        wit_ans, witness=type(wit_ans.witness)(spec, k + 1, flipped))
    report("witness: flipped coefficient caught",
           W.check_witness_queries(inputs, [cert_ans, bad_witness]) == 1)

    # add a functional that is zero on z but not on the last column of
    # d_{k+1} that has a cell outside the support of z
    lower = enumerate_cells(spec, k)
    _, r = max((c, r) for r, c, _ in boundary_matrix(spec, k + 1).triplets
               if lower[r] not in z_cert.coeffs)
    cert = dict(cert_ans.certificate)
    target = lower[r]
    cert[target] = cert.get(target, 0) + 1
    bad_cert = dataclasses.replace(cert_ans, certificate=cert)
    report("witness: certificate failing on one column caught",
           W.check_witness_queries(inputs, [bad_cert, wit_ans]) == 1)


def betti_cases(report):
    ops = W.ladder_ops([e for e in W.LADDER if e[0] == "perm(6;3)"])
    results, _ = W.run_betti_ladder(ops)
    report("betti: correct ranks and profile pass", W.check_betti_ladder(ops, results) == 0)
    prof = results[-1]
    betti = list(prof.betti)
    betti[1] += 1
    betti[2] += 1  # Euler characteristic unchanged
    wrong = results[:-1] + [dataclasses.replace(prof, betti=tuple(betti))]
    report("betti: wrong Betti numbers caught", W.check_betti_ladder(ops, wrong) == 1)
    ranks = list(results[:-1])
    ranks[0] += 1
    report("betti: wrong rank caught", W.check_betti_ladder(ops, ranks + [prof]) == 1)


def basis_cases(report):
    n, width, betti = W.BASIS_COMPLEXES[0]
    tasks = [t for t in W.make_basis_verify(0) if t[:2] == (n, width)]

    def reports(count):
        return [BasisReport(tuple(range(1, n + 1)), width, k, style,
                            count(k), count(k), True)
                for _, _, _, k, style in tasks]

    report("basis: reports with the frozen counts pass",
           all(map(W.report_ok, tasks, reports(lambda k: betti[k]))))
    report("basis: count = betti = 0 caught",
           not any(map(W.report_ok, tasks, reports(lambda k: 0))))


def rewrite_cases(report):
    items = W.make_rewrite(3)
    small = next(it for it in items
                 if len(it[0].labels()) <= W.EXPRESS_MAX_LABELS and it[2] == 0)
    big = next(it for it in items if len(it[0].labels()) >= 8
               and any(isinstance(f, Wheel) and f.size >= 2 for f in it[0].factors))
    items = [small, big]
    results, _ = W.run_rewrite(items)
    report("rewrite: correct normal forms pass", W.check_rewrite(items, results) == 0)

    for i, (word, mapping, _, width, _) in enumerate(items):
        terms = dict(results[i].terms)
        terms[min(terms, key=str)] += 1
        wrong = list(results)
        wrong[i] = WordCombination(terms)
        labels = len(word.labels())
        report(f"rewrite: changed coefficient caught on {labels} labels",
               W.check_rewrite(items, wrong) == 1)
        if labels <= W.EXPRESS_MAX_LABELS:
            report("rewrite: class check alone catches it",
                   not W.same_class(word, mapping, width, wrong[i]))

    improper = GeneratorWord(tuple(
        Wheel(tuple(sorted(f.labels))) if isinstance(f, Wheel) and f.size >= 2 else f
        for f in big[0].factors))
    report("rewrite: an improper wheel is one wrong answer, not a crash",
           W.check_rewrite(items, [results[0], WordCombination.of(improper)]) == 1)


def declaration_cases(report):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    pred = json.loads((HERE / "predictions.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    named = set()
    ok = set(pred["workloads"]) == workloads == set(W.WORKLOADS)
    for row in pred["predictions"]:
        named.update(row["per_layer"])
        for move in row["moves"]:
            ok = ok and move["metric"] in e2e and set(move["workloads"]) <= workloads
    report("predictions: every name declared, every per-layer metric covered",
           ok and named == layers)


def main() -> int:
    failures = []

    def report(name, ok):
        print(f"{'ok  ' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    witness_cases(report)
    betti_cases(report)
    basis_cases(report)
    rewrite_cases(report)
    declaration_cases(report)
    print("gate self-test:", "all cases behave" if not failures else f"{len(failures)} FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

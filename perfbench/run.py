"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (the library is imported from
``src``; nothing is installed).  Workloads: betti_ladder, witness_queries,
basis_verify, rewrite (see workloads.py and BENCHMARK.json).

Every pass is one cold run of the workload in a fresh, single-threaded
interpreter (child.py), started one at a time.  The child environment
drops ``STRIPCONF_CACHE_DIR`` and ``PYTHONOPTIMIZE``, pins
``PYTHONHASHSEED`` and writes no bytecode, so the default code path is
measured with the library's own checks inside the timed region.

Times are process CPU seconds scaled to a reference speed (speed.py):
the library is single-threaded and does no I/O, so CPU time leaves out
the time a shared host steals, and the scaling takes out the spells in
which the host makes the same code run slower.  The measured CPU and
wall time of each pass are printed alongside.

Every pass of a run makes the same calls, so each call is timed once per
pass and taken at its median over the passes (see ``typical``).
``--trace 0`` reports the end-to-end metrics over those per-call times:
``cpu_s`` is their sum, ``query_p50_ms`` their median and
``query_tail_ms`` their tail (see ``tail``); ``peak_rss_mb`` is the
median over the passes and ``setup_s`` the median over every process
started.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead; it also
prints one row per (complex, degree) eliminated and writes the spans to
``perfbench/out/``.

The last line of standard output is the JSON result.  The exit code is 0
when every answer checked out, 1 when a check failed, and 2 when the
benchmark could not run (no result line is printed then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from speed import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("betti_ladder", "witness_queries", "basis_verify", "rewrite")
SETUP_SAMPLES = 7        # setup_s is the median of at least this many starts
DEADLINE_S = 170         # a run ends within this, finished or not


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("STRIPCONF_CACHE_DIR", "PYTHONOPTIMIZE", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float,
          trace: bool = False) -> dict:
    """Run one child to completion and return its report.  The child is
    killed at `deadline` (a time.monotonic() value)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {workload} exited with "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies_ms: list) -> tuple:
    """(value, percentile, samples): the highest whole percentile with at
    least ten samples above it, by nearest rank; the maximum when there
    are fewer than 100 samples, where that percentile would sit below the
    90th."""
    xs = sorted(latencies_ms)
    n = len(xs)
    if n < 100:
        return xs[-1], 100, n
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p * n / 100)
    return xs[rank - 1], p, n


def typical(passes: list) -> list:
    """Per call, the median over the passes of its scaled CPU time (ms).

    Every pass of a run makes the same calls on the same inputs in the same
    order, each from a cold process, so the calls repeat exactly.  The
    scaling takes out most of a shared host's slow spells; what it misses,
    around the moments the host switches and in garbage collections that
    land in the speed kernel, goes both ways and the median leaves out.
    """
    counts = {len(p["latencies_ms"]) for p in passes}
    if len(counts) != 1:
        raise BenchError(f"passes made different numbers of calls: {sorted(counts)}")
    return [median(col) for col in zip(*(
        [scaled(ms, ref) for ms, ref in zip(p["latencies_ms"], p["reference_ms"])]
        for p in passes))]


def run_passes(workload: str, seed: int, seconds: float, traced: bool,
               deadline: float):
    """Passes until the measuring time is used; untraced and traced passes
    alternate when `traced`, with at least one of each."""
    passes = []
    t0 = time.monotonic()
    while True:
        trace = traced and len(passes) % 2 == 1
        report = spawn(workload, seed, "pass", deadline, trace)
        report["traced"] = trace
        passes.append(report)
        done = time.monotonic() - t0
        complete = not traced or len({p["traced"] for p in passes}) == 2
        if complete and done + done / len(passes) > seconds:
            return passes


def declared_metrics(trace: bool) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def format_stage(row: dict) -> str:
    return (f"  {row['complex']:<28} d={row['degree']} "
            f"{'tracked' if row['tracked'] else 'plain  '} cells={row['cells']:>6} "
            f"nnz={row['input_nnz']:>6} rank={row['rank']:>5} "
            f"ech_nnz={row['echelon_nnz']:>6} absorbs={row['absorb_calls']:>5} "
            f"enum={row['enumerate_s']:.3f}s bdry={row['boundary_s']:.3f}s "
            f"elim={row['eliminate_s']:.3f}s rss={row['rss_mb']:.1f}MB")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stripconf benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "stripconf" / "__init__.py").is_file():
        raise BenchError(f"no stripconf sources under {ROOT / 'src'}")
    declared = declared_metrics(bool(args.trace))

    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace),
                        deadline)
    setups = [spawn(args.workload, args.seed, "setup", deadline)
              for _ in range(SETUP_SAMPLES - len(passes))]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    calls = typical(plain)
    tail_ms, tail_p, tail_n = tail(calls)
    values = {
        "setup_s": median([scaled(s["setup_s"], s["setup_ref_ms"])
                           for s in setups + passes]),
        "cpu_s": sum(calls) / 1000,
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        "query_p50_ms": median(calls),
        "query_tail_ms": tail_ms,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {attempted} operations, {failed} failed "
          f"(failed_frac {failed / attempted:.4f})")
    print("pass cpu_s / wall_s: " + ", ".join(
        f"{p['cpu_s']:.3f}/{p['wall_s']:.3f}{' traced' if p['traced'] else ''}"
        for p in passes))
    for e in errors[:5]:
        print(f"  error: {e}")
    print(f"query_tail_ms is p{tail_p} of {tail_n} calls per pass, each call "
          f"at its median over {len(plain)} passes")
    if traced:
        layers = {name: median([p["layers"][name] for p in traced])
                  for name in traced[0]["layers"]}
        layers["trace.cpu_s"] = sum(typical(traced)) / 1000
        layers["trace.overhead_s"] = layers["trace.cpu_s"] - values["cpu_s"]
        values = layers
        stages = traced[0]["stages"]
        if stages["rows"]:
            print("stages of one traced pass, per (complex, degree):")
            for row in stages["rows"]:
                print(format_stage(row))
            print("per complex:")
            for c in stages["complexes"]:
                print(f"  {c['complex']:<28} cells={c['cells']:>6} "
                      f"enumerate={c['enumerate_s']:.3f}s boundary={c['boundary_s']:.3f}s "
                      f"eliminate={c['eliminate_s']:.3f}s")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"values": values, "tail": [tail_ms, tail_p, tail_n],
                   "typical_calls_ms": calls, "passes": passes,
                   "setups": setups}, fh, indent=1)

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)

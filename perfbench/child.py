"""One benchmark process: set up one workload, optionally run one cold pass.

    python perfbench/child.py --workload NAME --seed N --mode setup|pass [--trace]

run.py starts this in a fresh interpreter per pass.  The last line of
standard output is one JSON object:

* ``setup_s``: CPU seconds this process used from its start until the
  package was imported and the inputs generated, and ``setup_ref_ms``, the
  speed kernel's time right after (see speed.py);
* in ``pass`` mode also the pass's ``cpu_s`` and ``wall_s``,
  ``peak_rss_mb`` (read before the checks), per call the CPU
  ``latencies_ms`` and the kernel's time around it ``reference_ms``,
  ``attempted`` and ``failed``; with ``--trace`` also ``layers`` and
  ``stages`` (their seconds scaled like the calls), and the spans, in
  measured CPU seconds, are written to
  ``perfbench/out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    from speed import WINDOW, Speedometer, scaled
    from workloads import WORKLOADS, Failed
    make, run, check = WORKLOADS[args.workload]
    inputs = make(args.seed)
    setup = time.process_time()
    meter = Speedometer()
    meter.sample(WINDOW)
    report = {"setup_s": setup, "setup_ref_ms": 1000 * meter.reference(setup, setup)}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    results, timings = run(inputs)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    raised = [r.error for r in results if isinstance(r, Failed)]
    failed = check(inputs, results)
    report.update({
        "cpu_s": cpu,
        "wall_s": wall,
        "peak_rss_mb": peak,
        "latencies_ms": [cpu * 1000 for cpu, _ in timings],
        "reference_ms": [ref * 1000 for _, ref in timings],
        "attempted": len(results),
        "failed": failed,
        "errors": raised[:5],
    })
    if tracer is not None:
        # per-layer and per-stage seconds at the reference speed, by the
        # pass's time-weighted speed factor, so they add up with cpu_s
        factor = (sum(scaled(c, 1000 * ref) for c, ref in timings)
                  / sum(c for c, _ in timings))
        report["layers"] = {k: v * factor if k.endswith("_s") else v
                            for k, v in tracer.layer_metrics().items()}
        stages = tracer.stages()
        for row in stages["rows"] + stages["complexes"]:
            for key in ("enumerate_s", "boundary_s", "eliminate_s"):
                row[key] *= factor
        report["stages"] = stages
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

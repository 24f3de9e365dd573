"""Regenerate the frozen answers that the benchmark's checks compare with.

    PYTHONPATH=src python3 perfbench/freeze.py

Writes rewrite_digests.json: per word shape of the rewrite workload, the
digest of the normal form of each item of its pool
(workloads.rewrite_pool()).  Before writing, every normal form must pass the
rest of the rewrite check: it is a fixed point of quotient_reduce, and on at
most 5 labels with d = 0 it is in the class of the relabeled word.  Then it
prints the digest of basis_change(5, 3, 3) for BASIS_CHANGE_DIGEST in
workloads.py.  Normal forms are unique, so a correct change to the library
leaves both as they are; rerun this only when the pool or the tasks change.
Takes about half a minute.
"""

from __future__ import annotations

import json
import sys

import workloads as W
from stripconf import act, basis_change, quotient_reduce


def main() -> int:
    pool = W.rewrite_pool()
    items, results, shapes = [], [], []
    for s, shape in enumerate(pool):
        digests = []
        for j, (word, mapping, d, width) in enumerate(shape):
            out = quotient_reduce(act(mapping, word), d, width)
            items.append((word, mapping, d, width, (s, j)))
            results.append(out)
            digests.append(W.normal_form_digest(out))
        word, _, _, width = shape[0]
        shapes.append({"width": width, "word": str(word), "digests": digests})
    frozen = [shape["digests"] for shape in shapes]
    bad = W.count_wrong(zip(items, results),
                        lambda item, out: W.normal_form_ok(item, out, frozen))
    if bad:
        print(f"{bad} normal forms fail the check; nothing written", file=sys.stderr)
        return 1
    about = ("Digests (workloads.normal_form_digest) of the normal forms of "
             "workloads.rewrite_pool(), per word shape; written by freeze.py.")
    with open(W.REWRITE_DIGESTS, "w") as fh:
        fh.write(json.dumps({"about": about})[:-1] + ', "shapes": [\n')
        fh.write(",\n".join(json.dumps(shape) for shape in shapes))
        fh.write("\n]}\n")
    print(f"wrote {len(items)} digests for {len(shapes)} shapes to {W.REWRITE_DIGESTS.name}")
    change = basis_change(*W.BASIS_CHANGE)
    print(f"BASIS_CHANGE_DIGEST = {W.change_digest(change)!r}"
          f" (triangular: {change.triangular})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Commands:
  betti      homology of a disk configuration complex
  verify     run one of the verification suites
  reduce     rewrite a generator word into basis normal form
  stability  representation stability parameters

Exit codes: 0 success, 1 a verification failed, 2 bad usage or input,
3 the computation was refused as too large (raise --max-cells to force).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .algebra import (act, generation_check, higher_stability_params,
                      quotient_reduce, r1_instance, r2_instance, r3_instance,
                      r4_instance, r5_instance, reduce as reduce_word,
                      stability_params)
from .cells import cell_complex, parse_weighted_set, permutohedron
from .chains import verify_boundary_squared
from .cycles import Wheel, WordSyntaxError, parse_word
from .homology import (DEFAULT_MAX_CELLS, ResourceRefusal, _guard, decomposition_check,
                       homology_profile, isotypic_profile)
from .basis import AM, AMW, verify_basis


def parse_permutation(text: str) -> dict:
    """Cycle notation like "(1 3)(2 4)" into a label mapping."""
    text = text.strip()
    if not text:
        return {}
    if not re.fullmatch(r"(\s*\([^()]*\)\s*)+", text):
        raise ValueError(f"not cycle notation: {text!r}")
    mapping = {}
    for group in re.findall(r"\(([^()]*)\)", text):
        entries = [int(tok) for tok in re.split(r"[,\s]+", group.strip()) if tok]
        if len(entries) < 2:
            continue
        if len(set(entries)) != len(entries):
            raise ValueError(f"repeated label in cycle ({group})")
        for a in entries:
            if a in mapping:
                raise ValueError(f"label {a} appears in two cycles")
        for a, b in zip(entries, entries[1:] + entries[:1]):
            mapping[a] = b
    return mapping


def _spec_from_args(args):
    if args.labels:
        labels, weights = parse_weighted_set(args.labels)
        wmap = dict(zip(labels, weights))
        if all(w == 1 for w in weights):
            wmap = None
    elif args.n is not None:
        labels, wmap = args.n, None
    else:
        raise ValueError("give either --n or --labels")
    maker = permutohedron if args.kind == "perm" else cell_complex
    return maker(labels, args.w, wmap)


def _emit(args, payload: dict, table_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in table_lines:
            print(line)


def _cmd_betti(args) -> int:
    spec = _spec_from_args(args)
    iso = isotypic_profile(spec, max_cells=args.max_cells) if args.irreps else None
    prof = iso.profile if iso else homology_profile(spec, max_cells=args.max_cells)
    payload = {
        "kind": spec.kind,
        "labels": list(spec.labels),
        "weights": list(spec.weights),
        "width": spec.width,
        "betti": list(prof.betti),
        "cells": list(prof.cells),
    }
    lines = [f"{spec.describe()}"]
    degrees = range(len(prof.betti))
    if args.degree is not None:
        k = args.degree
        b = prof.betti[k] if 0 <= k < len(prof.betti) else 0
        payload["degree"] = k
        payload["betti_k"] = b
        lines.append(f"b{k} = {b}")
        degrees = [k] if k in degrees else []
    else:
        lines.append(str(prof))
        lines.append("cells " + " ".join(f"c{d}={c}" for d, c in enumerate(prof.cells)))
    if iso:
        payload["irreps"] = [
            {"degree": k, "terms": [{"shape": list(shape), "dim": f, "multiplicity": m}
                                    for shape, f, m in iso.terms(k)]}
            for k in degrees]
        lines.extend(iso.line(k) for k in degrees)
    _emit(args, payload, lines)
    return 0


def _relation_battery(width: int):
    """A bounded standard battery of relation instances at this width."""
    checks = []
    checks.append(("R1 W(1,2)", r1_instance((1, 2), width)))
    if width >= 3:
        checks.append(("R1 W(1,2,3)", r1_instance((1, 2, 3), width)))
        checks.append(("R1 W(2,3,1)", r1_instance((2, 3, 1), width)))
    checks.append(("R2 W(1),W(2)", r2_instance(Wheel((1,)), Wheel((2,)), width)))
    if width >= 3:
        checks.append(("R2 W(2,1),W(3)", r2_instance(Wheel((2, 1)), Wheel((3,)), width)))
    if width >= 4:
        checks.append(("R2 W(2,1),W(4,3)", r2_instance(Wheel((2, 1)), Wheel((4, 3)), width)))
    wheels3 = (Wheel((1,)), Wheel((2,)), Wheel((3,)))
    for order in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        checks.append((f"R3 order {order}", r3_instance(wheels3, order, width)))
    if width >= 3:
        checks.append(("R4 slot 0", r4_instance([(1, 2), (3,), (4,)], 0, width)))
    else:
        checks.append(("R4 slot 0", r4_instance([(1, 2), (3,)], 0, width)))
    checks.append(("R5 three wheels", r5_instance(wheels3, width)))
    checks.append(("R5 four wheels", r5_instance(wheels3 + (Wheel((4,)),), width)))
    if width >= 3:
        checks.append(("R5 mixed sizes",
                       r5_instance((Wheel((1,)), Wheel((2,)), Wheel((4, 3))), width)))
    return checks


def _cmd_verify(args) -> int:
    if args.max_cells is not None and args.scope in ("relations", "generation"):
        raise ValueError(f"--max-cells does not apply to --scope {args.scope}, "
                         "which enumerates no complex")
    max_cells = DEFAULT_MAX_CELLS if args.max_cells is None else args.max_cells
    results = []
    if args.scope == "boundary":
        spec = _spec_from_args(args)
        _guard(spec, range(spec.n + 1), max_cells)
        rep = verify_boundary_squared(spec)
        results.append((f"boundary^2 {spec.describe()}", rep.ok))
    elif args.scope == "basis":
        if args.n is None:
            raise ValueError("--scope basis needs --n")
        _guard(cell_complex(args.n, args.w), range(args.n + 1), max_cells)
        styles = [AM, AMW] if args.style == "both" else [args.style]
        degrees = ([args.degree] if args.degree is not None
                   else list(range(args.n)))
        for style in styles:
            for k in degrees:
                rep = verify_basis(args.n, args.w, k, style, max_cells)
                results.append(
                    (f"{style} basis n={args.n} w={args.w} degree {k}: "
                     f"{rep.count} words, betti {rep.betti}", rep.ok))
    elif args.scope == "relations":
        for name, inst in _relation_battery(args.w):
            results.append((f"{name} at width {args.w}", inst.verified()))
    elif args.scope == "decomposition":
        if args.n is None:
            raise ValueError("--scope decomposition needs --n")
        _guard(cell_complex(args.n, args.w), range(args.n + 1), max_cells)
        rep = decomposition_check(args.n, args.w, max_cells=max_cells)
        results.append((f"decomposition n={args.n} w={args.w} "
                        f"({rep.sectors} sectors)", rep.ok))
    elif args.scope == "generation":
        if args.k is None:
            raise ValueError("--scope generation needs --k")
        bound, ok = generation_check(args.k, args.w)
        results.append((f"generation degree {args.k} width {args.w} "
                        f"past {bound} disks", ok))
    ok = all(r[1] for r in results)
    payload = {"scope": args.scope, "ok": ok,
               "checks": [{"name": n, "ok": o} for n, o in results]}
    lines = [f"{'ok' if o else 'FAIL'}  {n}" for n, o in results]
    lines.append(f"{args.scope}: {'all checks passed' if ok else 'FAILED'}")
    _emit(args, payload, lines)
    return 0 if ok else 1


def _cmd_reduce(args) -> int:
    word = parse_word(args.word)
    x = word
    if args.act:
        x = act(parse_permutation(args.act), word)
    if args.quotient:
        combo = quotient_reduce(x, args.quotient, args.w)
    else:
        combo = reduce_word(x, args.w)
    payload = {
        "input": str(word),
        "width": args.w,
        "terms": [{"coefficient": str(c), "word": str(w)}
                  for w, c in combo.items()],
    }
    if args.act:
        payload["act"] = args.act
    if args.quotient:
        payload["quotient"] = args.quotient
    lines = []
    if combo.is_zero():
        lines.append("0")
    else:
        for w, c in combo.items():
            lines.append(f"{str(c):>6}  {w}")
    _emit(args, payload, lines)
    return 0


def _cmd_stability(args) -> int:
    if args.order == 1:
        params = stability_params(args.k, args.w)
    else:  # refuses an order below 1
        params = higher_stability_params(args.order, args.k, args.w)
    payload = {
        "width": params.width,
        "order": params.order,
        "index": params.index,
        "b": params.b,
        "fi_width": params.fi_width,
        "generation_degree": params.generation_degree,
    }
    lines = [params.describe()]
    code = 0
    if args.check:
        if params.order != 1:
            raise ValueError("--check applies to first-order stability only")
        bound, ok = generation_check(args.k, args.w)
        payload["checked_bound"] = bound
        payload["check_ok"] = ok
        lines.append(f"{'ok' if ok else 'FAIL'}  every degree-{args.k} basis word "
                     f"on {bound + 1} disks has a one-disk wheel")
        code = 0 if ok else 1
    _emit(args, payload, lines)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stripconf",
        description="Exact homology of disk configurations in a strip.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--w", type=int, required=True, help="strip width")
        p.add_argument("--format", choices=("table", "json"), default="table")

    def capped(p, default=DEFAULT_MAX_CELLS):
        p.add_argument("--max-cells", type=int, default=default,
                       help="refuse complexes larger than this")

    p = sub.add_parser("betti", help="Betti numbers of a configuration complex")
    common(p)
    capped(p)
    p.add_argument("--n", type=int, help="number of unit disks, labeled 1..n")
    p.add_argument("--labels", help="weighted labels, e.g. '1 2:2 3'")
    p.add_argument("--kind", choices=("cell", "perm"), default="cell")
    p.add_argument("--degree", type=int, help="report one degree only")
    p.add_argument("--irreps", action="store_true",
                   help="also split each homology group into irreducibles of "
                        "the symmetric group (unit-weight --kind cell only)")
    p.set_defaults(run=_cmd_betti)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    capped(p, None)  # read by the boundary, basis and decomposition scopes only
    p.add_argument("--scope", required=True,
                   choices=("boundary", "basis", "relations",
                            "decomposition", "generation"))
    p.add_argument("--n", type=int, help="number of unit disks")
    p.add_argument("--labels", help="weighted labels for boundary checks")
    p.add_argument("--kind", choices=("cell", "perm"), default="cell")
    p.add_argument("--degree", type=int, help="restrict basis checks to one degree")
    p.add_argument("--style", choices=(AM, AMW, "both"), default="both")
    p.add_argument("--k", type=int, help="homological degree for generation")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("reduce", help="basis normal form of a generator word")
    common(p)
    p.add_argument("--word", required=True,
                   help="e.g. 'W(3)|W(2,1)' or 'W(1)|AF(W(2),W(3),W(4))'")
    p.add_argument("--act", help="relabel first, cycle notation e.g. '(1 3)(2 4)'")
    p.add_argument("--quotient", type=int, default=0,
                   help="then kill words with a bare wheel on up to this many disks")
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("stability", help="representation stability parameters")
    common(p)
    p.add_argument("--k", type=int, required=True, help="homological degree")
    p.add_argument("--order", type=int, default=1,
                   help="stability order d (default 1, plain FI)")
    p.add_argument("--check", action="store_true",
                   help="verify generation on the basis past the bound")
    p.set_defaults(run=_cmd_stability)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ResourceRefusal as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except (WordSyntaxError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

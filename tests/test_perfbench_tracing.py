"""The benchmark's tracer (`perfbench/tracing.py`) over the library.

`run.py --trace 1` wraps the library's entry points by name, so a rename
in `src` breaks it.  This test installs the tracer in-process, makes one
call per traced layer, reads both reports and checks that `uninstall()`
puts back every attribute it patched.  The tracer re-binds every module
attribute that holds a patched function, this module's included, so the
originals are kept in a dict, where it does not look.
"""

import importlib.util
import json
import sys
from pathlib import Path

import stripconf.algebra as algebra
import stripconf.basis as basis
import stripconf.chains as chains
import stripconf.homology as homology
from stripconf.cells import cell_complex, enumerate_cells, permutohedron
from stripconf.linalg import Echelon

ROOT = Path(__file__).resolve().parents[1]
ECHELON_METHODS = ("absorb", "residue", "coordinates", "annihilator")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def module_functions() -> dict:
    """(module name, attribute) -> value for every function any loaded module binds."""
    return {(name, attr): value for name, mod in list(sys.modules.items())
            for attr, value in list(getattr(mod, "__dict__", {}).items())
            if callable(value) and not isinstance(value, type)}


def test_tracer_traces_every_layer_and_uninstalls(monkeypatch):
    monkeypatch.setattr(homology, "_image_cache", {})  # cold, so echelons are built
    originals = module_functions()
    methods = {attr: Echelon.__dict__[attr] for attr in ECHELON_METHODS}
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        spec = cell_complex(4, 2)
        z = chains.boundary(chains.ChainVector(spec, 2, {enumerate_cells(spec, 2)[0]: 1}))
        homology.homology_profile(permutohedron(4, 2))
        perm = permutohedron(4, 2)  # its stage row comes from a membership query
        zp = chains.boundary(chains.ChainVector(perm, 2, {enumerate_cells(perm, 2)[0]: 1}))
        assert homology.is_boundary(zp)
        assert homology.is_boundary(z, want_witness=True).witness is not None
        assert basis.verify_basis(4, 2, 1).ok
        assert not algebra.reduce("W(3)|W(2,1)", 3).is_zero()
        metrics = tracer.layer_metrics()
        stages = tracer.stages()
    finally:
        tracer.uninstall()

    now = module_functions()
    assert {key: now.get(key) for key in originals} == originals
    assert {attr: Echelon.__dict__[attr] for attr in ECHELON_METHODS} == methods

    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - set(metrics) == {"trace.cpu_s", "trace.overhead_s"}  # added by run.py
    for name in ("cells.count", "chains.boundary_matrix_calls", "linalg.absorb_calls",
                 "homology.image_echelon_calls", "cycles.word_cycle_calls", "basis.words",
                 "algebra.output_terms", "trace.spans"):
        assert metrics[name] > 0, name
    assert {row["complex"] for row in stages["rows"]} >= {permutohedron(4, 2).describe(),
                                                          spec.describe()}
    assert all(row["cells"] and row["rank"] >= 0 for row in stages["rows"])

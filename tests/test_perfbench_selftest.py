"""The benchmark's correctness gate under `python -O`.

`perfbench/selftest.py` feeds the workload checks right answers and
deliberately wrong ones, and exits 0 only when the gate accepts the first
and counts each of the others.  It runs here as its docstring says, with
asserts stripped, so a check that relies on `assert` fails the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_gate_selftest_passes_under_python_O():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-O", str(ROOT / "perfbench" / "selftest.py")],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr

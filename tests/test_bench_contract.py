"""The benchmark under bench/ must keep running against this code.

bench/ drives maicsim through names it patches from outside (see
bench/hooks.py) and counts the solver operations of each pass. A renamed hook
target or an operation that stops being counted would otherwise show up only
in a full benchmark run.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# counted operations (Cox fits, weight estimates, CLI commands) in one pass
OPS_PER_PASS = {"scenario": 6, "cli_roundtrip": 5, "sweep_small": 24}
# the smoke run makes one pass untraced and two traced (a reference pass first)
PASSES = {0: 1, 1: 2}


def test_bench_smoke_counts_every_operation():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    seen = {(w, int(t)): (int(a), int(f)) for w, t, a, f in re.findall(
        r"smoke ok: (\w+) trace=(\d) attempted=(\d+) failed=(\d+)", proc.stderr)}
    assert seen == {(w, t): (ops * passes, 0)
                    for w, ops in OPS_PER_PASS.items()
                    for t, passes in PASSES.items()}

"""The benchmark's self-test passes against this checkout.

The benchmark's tracer wraps trainer, network and optimizer methods by name
and reads ``LossBreakdown`` fields, so an API change that breaks a traced
run fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

"""The benchmark's own smoke test, so that renaming a function the benchmark
imports or wraps fails here rather than in a benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest():
    # writes only to the gitignored .perfbench_out/
    out = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    assert "selftest passed" in out.stdout

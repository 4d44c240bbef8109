"""Every demo script and every fenced ``python`` block of the README runs to
completion, so a renamed or removed library name that either calls fails
here."""

import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def _readme_blocks() -> list:
    """The fenced python blocks of README.md, each named by its line."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    blocks = []
    for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        line = text.count("\n", 0, m.start()) + 1
        blocks.append(pytest.param(m.group(1), id=f"README.md:{line}"))
    return blocks


def _run(argv: list) -> subprocess.CompletedProcess:
    # the demos and the README blocks print to stdout and write no files
    path_entries = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    out = _run([path])
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]


@pytest.mark.parametrize("source", _readme_blocks())
def test_readme_python_block_runs(source):
    out = _run(["-c", source])
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]

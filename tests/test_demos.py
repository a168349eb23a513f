"""Every narrative script under demos/ and every Python block of the README
runs to completion against src/, and a demo prints the same bytes at any
OpenBLAS thread count."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def run_against_src(args, **env):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=300,
    )


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    result = run_against_src([str(demo)])
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_stdout_does_not_follow_blas_threads(demo):
    one, two = (run_against_src([str(demo)], OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout


def test_readme_python_blocks_exit_zero():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        result = run_against_src(["-c", block])
        assert result.returncode == 0, f"{block}\n{result.stderr}"

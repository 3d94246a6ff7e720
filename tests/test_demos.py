"""Every demo script runs to completion against the package in this tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vecdom

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    src = str(Path(vecdom.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert run.returncode == 0, run.stderr

"""Every demo script, and the README's quick start, runs to completion
against the package in this tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vecdom

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_readme_quick_start_prints_what_its_comment_shows(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("SolveResult(YES, witness=frozenset({0}),"), first

"""The tools under ``tools/`` import only the standard library at load time.

The optimum of ``solve_reach`` and ``region_cost`` needs scipy, which
only the bench extra installs, so they import it when an optimum is
computed; ``identity_digest`` imports ``vecdom`` from the source directory
it is given when it runs.  A fresh interpreter imports every tool the way
``tools/region_cost.py`` imports its sibling, by name from ``tools/`` on
``sys.path``; this test runs without scipy too.
"""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
import identity_digest, region_cost, solve_reach
print(" ".join(sorted({"scipy", "numpy", "oracle", "instances", "vecdom"} & set(sys.modules))))
"""


def test_tools_import_only_the_standard_library():
    run = subprocess.run(
        [sys.executable, "-c", IMPORT, str(TOOLS)],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []

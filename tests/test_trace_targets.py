"""The benchmark's tracer finds every name it wraps.

``perfbench/tracing.py`` wraps vecdom functions where their callers look
them up; a name that moves silently drops its spans from a traced run.
The module imports only the standard library, so it is loaded here by
file path.
"""

import importlib
import inspect
from pathlib import Path

from conftest import load_by_path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_exists():
    tracing = load_by_path("perfbench_tracing", TRACING)
    # ``install`` also wraps each entry of the local-rule table.
    names = [(module, attr) for module, attr, _, _ in tracing.TARGETS]
    names.append(("vecdom.rules", "_LOCAL_RULES"))
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracing.TARGETS and missing == []


def test_cli_solver_takes_a_node_budget():
    # ``perfbench/run.py``'s ``bound_solver`` binds ``node_budget`` on the
    # name the CLI calls; without the parameter every workload fails.
    from vecdom import cli

    assert "node_budget" in inspect.signature(cli.solve_bb).parameters

"""Spans around the calls into each vecdom module, and the per-layer metrics
derived from them.

The modules import names from each other directly (``from .rules import
run_fixpoint``), so a wrapper must replace the name where its caller looks
it up: ``vecdom.cli.run_fixpoint`` and ``vecdom.selftest.run_fixpoint`` are
separate wrappers of the same function.  Each call records one span
(id, name, start, end, parent span, operation id, count) in memory; the
spans are written out when the run ends.  A span's self time is its
duration minus the part of it that its children cover.

``vecdom selftest`` evaluates instances on a thread pool, so on that
workload spans of different threads overlap and summed durations exceed
wall time; they include time spent waiting for the interpreter lock.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager

LOCAL_RULES = (1, 2, 3, 4, 5, 9, 10, 11, 12, 13)
COLORING_RULES = (6, 7, 8)


def _nodes(result):
    return result.nodes_explored


def _fixpoint(report):
    return (report.rounds, int(report.caps_hit))


# (module, attribute, span name, count taken from the result)
TARGETS = [
    ("vecdom.cli", "parse", "toolkit.parse", None),
    ("vecdom.cli", "write", "toolkit.write", None),
    ("vecdom.cli", "run_fixpoint", "rules.fixpoint", _fixpoint),
    ("vecdom.cli", "kernel_report", "toolkit.kernel_report", lambda s: s.region_count_examined),
    ("vecdom.cli", "solve_bb", "solver.solve_bb", _nodes),
    ("vecdom.cli", "solve_brute", "solver.solve_brute", _nodes),
    ("vecdom.cli", "verify_solution", "solver.verify", None),
    # Not reported: it gives the pool's evaluate spans a parent, so that
    # cli.overhead_s counts only the CLI's own time.
    ("vecdom.cli", "run_selftest", "selftest.run", None),
    ("vecdom.rules", "embed", "planarity.embed", None),
    ("vecdom.rules", "neighborhood", "instance.neighborhood", None),
    *[("vecdom.rules", f"rule{n}", f"regions.rule{n}", len) for n in COLORING_RULES],
    ("vecdom.toolkit", "embed", "planarity.embed", None),
    ("vecdom.regions", "cycle_sides", "planarity.cycle_sides", None),
    ("vecdom.regions", "dominates", "instance.dominates", None),
    ("vecdom.solver", "dominates", "instance.dominates", None),
    ("vecdom.selftest", "evaluate_instance", "selftest.evaluate", None),
    ("vecdom.selftest", "run_fixpoint", "rules.fixpoint", _fixpoint),
    ("vecdom.selftest", "solve_bb", "solver.solve_bb", _nodes),
    ("vecdom.selftest", "solve_brute", "solver.solve_brute", _nodes),
    ("vecdom.selftest", "replay", "instance.replay", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._command_stack: list[int] = []
        self.t0 = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's first span hangs under whatever the calling
            # command is running, such as run_selftest around its thread pool.
            parent = stack[-1] if stack else (self._command_stack or [None])[-1]
            sid = next(self._ids)
            stack.append(sid)
            info = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    info = count(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.op, info))

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def command(self, argv):
        """The root span of one CLI call."""
        sid = next(self._ids)
        stack = self._command_stack = self._stack()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, "cli", start, end, None, self.op, argv[0]))

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, name, start, end, parent, op, info in self.spans:
                rec = [sid, name, round(start - self.t0, 7), round(end - self.t0, 7), parent, op, info]
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def install(tracer: Tracer):
    """Wrap every target that exists; return (undo, names of missing targets)."""
    undo, missing = [], []
    for module_name, attr, name, count in TARGETS:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            missing.append(f"{module_name}.{attr}")
            continue
        original = getattr(module, attr)
        setattr(module, attr, tracer.wrap(name, original, count))
        undo.append(lambda m=module, a=attr, o=original: setattr(m, a, o))
    rules = importlib.import_module("vecdom.rules")
    table = getattr(rules, "_LOCAL_RULES", None)
    if table is None:
        missing.append("vecdom.rules._LOCAL_RULES")
    else:
        saved = dict(table)
        for rid, fn in saved.items():
            table[rid] = tracer.wrap(f"rules.rule{rid}", fn, len)
        undo.append(lambda: table.update(saved))

    def restore():
        for step in reversed(undo):
            step()

    return restore, missing


def rescaled(spans, scales: list[float]) -> list[tuple]:
    """The spans with their times multiplied by their operation's factor
    from wall to reference seconds (see ``speed.py``).  Parents and children
    belong to the same operation, so nesting and overlaps are kept."""
    return [(sid, name, start * scales[op], end * scales[op], parent, op, info)
            for sid, name, start, end, parent, op, info in spans]


def _covered(start: float, end: float, children) -> float:
    """Length of [start, end] covered by the union of the children's intervals."""
    total = 0.0
    reach = start
    for c_start, c_end in sorted((max(c[2], start), min(c[3], end)) for c in children):
        if c_end <= reach:
            continue
        total += c_end - max(c_start, reach)
        reach = c_end
    return total


# Counters that must repeat exactly between two runs on the same seed.
DETERMINISTIC = (
    *[f"rules.rule{n}_events" for n in LOCAL_RULES],
    "rules.rounds",
    "rules.caps_hit",
    "toolkit.regions_examined",
    "planarity.cycle_sides_calls",
    "solver.nodes",
)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals over all spans; the caller adds the metrics of the
    untraced pass (``kernel_n_ratio``, ``kernelize_s``, ``solve_s``) and
    ``trace.overhead_s``."""
    by_name: dict[str, list[tuple]] = {}
    children: dict[int, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)

    def dur(name):
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def info(name, pick=lambda i: i):
        return sum(pick(s[6]) for s in by_name.get(name, ()) if s[6] is not None)

    def self_time(name):
        return sum(s[3] - s[2] - _covered(s[2], s[3], children.get(s[0], ())) for s in by_name.get(name, ()))

    local_names = {f"rules.rule{n}" for n in LOCAL_RULES}
    region_phase = 0.0
    for fix in by_name.get("rules.fixpoint", ()):
        kids = [c for c in children.get(fix[0], ()) if c[1] in local_names or c[1] == "planarity.embed"]
        region_phase += fix[3] - fix[2] - _covered(fix[2], fix[3], kids)

    solve_bb_s = dur("solver.solve_bb")
    nodes = info("solver.solve_bb")
    out = {
        "cli.overhead_s": self_time("cli"),
        "toolkit.parse_s": dur("toolkit.parse"),
        "toolkit.write_s": dur("toolkit.write"),
        "toolkit.kernel_report_s": dur("toolkit.kernel_report"),
        "toolkit.regions_examined": info("toolkit.kernel_report"),
        "rules.fixpoint_s": dur("rules.fixpoint"),
        "rules.rounds": info("rules.fixpoint", lambda i: i[0]),
        "rules.local_s": sum(dur(n) for n in local_names),
        **{f"rules.rule{n}_s": dur(f"rules.rule{n}") for n in LOCAL_RULES},
        **{f"rules.rule{n}_events": info(f"rules.rule{n}") for n in LOCAL_RULES},
        "rules.region_phase_s": region_phase,
        "rules.caps_hit": info("rules.fixpoint", lambda i: i[1]),
        **{f"regions.rule{n}_s": dur(f"regions.rule{n}") for n in COLORING_RULES},
        "regions.coloring_events": sum(info(f"regions.rule{n}") for n in COLORING_RULES),
        # Fixpoint time outside the local rules, embed, cycle_sides, dominates
        # and rules 6-8: the typed-path search and region assembly.
        "regions.enumerate_s": self_time("rules.fixpoint"),
        "planarity.embed_calls": calls("planarity.embed"),
        "planarity.embed_s": dur("planarity.embed"),
        "planarity.cycle_sides_calls": calls("planarity.cycle_sides"),
        "planarity.cycle_sides_s": dur("planarity.cycle_sides"),
        "instance.dominates_calls": calls("instance.dominates"),
        "instance.dominates_s": dur("instance.dominates"),
        "instance.neighborhood_calls": calls("instance.neighborhood"),
        "instance.neighborhood_s": dur("instance.neighborhood"),
        "instance.replay_s": dur("instance.replay"),
        "solver.solve_bb_s": solve_bb_s,
        "solver.nodes": nodes,
        "solver.nodes_per_s": nodes / solve_bb_s if solve_bb_s > 0 else 0.0,
        "solver.solve_brute_s": dur("solver.solve_brute"),
        "solver.brute_nodes": info("solver.solve_brute"),
        "solver.verify_s": dur("solver.verify"),
        "selftest.evaluate_s": dur("selftest.evaluate"),
    }
    return out

"""Command-line driver: kernelize, solve, verify, generate, stats, selftest.

Exit codes: 0 on success (and YES answers), 1 on NO or failed
verification, 2 on input errors and on any other failure that gives no
answer (``main`` prints its traceback to stderr).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .instance import VecdomError
from .planarity import embed
from .rules import FixpointOptions, run_fixpoint
from .selftest import run_selftest
from .solver import ORACLE_LIMIT, solve_bb, solve_brute, verify_solution
from .toolkit import (
    format_stats,
    generate_planar,
    kernel_of,
    kernel_report,
    make_special_case,
    parse,
    write,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_instance(path: str):
    return parse(_read(path))


def _fixpoint_options(args) -> FixpointOptions:
    return FixpointOptions(
        kernel_certificate={"on": True, "off": False}.get(args.kernel_certificate),
        enable_region_rules=not args.no_region_rules,
        max_paths_per_pair=args.max_paths_per_pair,
    )


def _witness_text(instance, witness) -> str:
    label = {v: i + 1 for i, v in enumerate(instance.vertices)}
    return " ".join(str(label[v]) for v in sorted(witness))


def _write_output(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _reduce(args):
    """Run the fixpoint on the input file; return its kernel and stats line."""
    instance = _load_instance(args.input)
    report = run_fixpoint(instance.copy(), _fixpoint_options(args))
    return kernel_of(report), format_stats(kernel_report(instance, report))


def _cmd_kernelize(args) -> int:
    kernel, stats = _reduce(args)
    _write_output(write(kernel), args.output)
    print(stats)
    return 0


def _cmd_solve(args) -> int:
    if args.method == "bb" and args.oracle_limit is not None:
        raise VecdomError("--oracle-limit applies only to --method brute")
    instance = _load_instance(args.input)
    # The planarity precondition of kernelize and stats: a non-planar
    # input is an input error whichever solver would decide it.
    embed(instance)
    if args.method == "brute":
        limit = ORACLE_LIMIT if args.oracle_limit is None else args.oracle_limit
        result = solve_brute(instance, limit)
    else:
        result = solve_bb(instance)
    if result.answer:
        # Not ``assert``, which -O strips: a witness that fails on the
        # input is a solver fault, not an input error, so it exits 2.
        if not verify_solution(instance, result.witness):
            raise AssertionError(f"{args.method} YES witness does not verify on the input")
        suffix = _witness_text(instance, result.witness)
        print(f"YES {suffix}".rstrip())
        return 0
    print("NO")
    return 1


def _cmd_verify(args) -> int:
    instance = _load_instance(args.input)
    tokens = []
    for line in _read(args.witness).splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        tokens.extend(line.split())
    try:
        file_ids = [int(t) for t in tokens]
    except ValueError as exc:
        raise VecdomError(f"witness file must hold vertex ids: {exc}") from None
    ids = instance.vertices
    for t in file_ids:
        if not 1 <= t <= len(ids):
            raise VecdomError(f"witness vertex {t} out of range 1..{len(ids)}")
    chosen = {ids[t - 1] for t in file_ids}
    if verify_solution(instance, chosen):
        print("VALID")
        return 0
    print("INVALID")
    return 1


def _cmd_generate(args) -> int:
    if args.k < 0:
        raise VecdomError("--k must be non-negative")
    instance = generate_planar(args.n, args.density, args.seed)
    if args.profile:
        instance = make_special_case(instance, args.profile, seed=args.seed)
    instance.budget = args.k
    _write_output(write(instance), args.output)
    return 0


def _cmd_stats(args) -> int:
    print(_reduce(args)[1])
    return 0


def _cmd_selftest(args) -> int:
    checked, failures = run_selftest(
        count=args.count,
        seed0=args.seed,
        progress=lambda done: print(f"checked {done}/{args.count} instances", file=sys.stderr),
    )
    for msg in failures:
        print(f"FAIL {msg}")
    if failures:
        print(f"selftest: {len(failures)} failure(s) over {checked} instances")
        return 1
    print(f"selftest: all {checked} instances sound")
    return 0


# Built once per process: parse_args keeps no state between calls, and each
# command's func looks up what it calls (solve_bb, run_fixpoint, ...) in this
# module at call time, so patching those names still takes effect.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecdom",
        description="Kernelization and exact solving for planar vector domination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fixpoint_flags(p):
        p.add_argument("--kernel-certificate", choices=("on", "off"), default=None)
        p.add_argument("--no-region-rules", action="store_true")
        p.add_argument(
            "--max-paths-per-pair", type=int, default=FixpointOptions.max_paths_per_pair
        )

    p = sub.add_parser("kernelize", help="reduce an instance and write the kernel")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    add_fixpoint_flags(p)
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("solve", help="decide an instance exactly")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=("bb", "brute"), default="bb")
    p.add_argument(
        "--oracle-limit", type=int, help=f"largest n for --method brute (default {ORACLE_LIMIT})"
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a witness file against an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--witness", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="emit a random planar instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("stats", help="reduce and print one stats line")
    p.add_argument("--input", required=True)
    add_fixpoint_flags(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("selftest", help="run the rule-soundness property suite")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def cli_main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    # The library raises ValueError for a value it cannot take (a bad
    # command-line number, a file that is not UTF-8): an input error too.
    except (VecdomError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    """The ``vecdom`` script and ``python -m vecdom``: a crash exits 2, since 1
    means NO.  :func:`cli_main` lets exceptions through to in-process callers."""
    try:
        code = cli_main(sys.argv[1:])
    except Exception:
        import traceback

        traceback.print_exc()
        code = 2
    sys.exit(code)

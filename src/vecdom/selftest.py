"""Randomized soundness harness.

``check_instance`` runs the reduction engine on any instance small enough
for the exhaustive oracle and checks every single event against it:
replaying the event log one step at a time must never change the
instance's answer.  It also cross-validates the branch-and-bound solver
and the end-to-end kernel pipeline, and verifies each of the solver's YES
witnesses on the instance it was found for.  ``evaluate_instance`` runs it
on a seeded corpus of small planar instances; the CLI ``selftest``
subcommand, the acceptance tests and the pinned rule runs all run on top
of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .instance import AnnotatedInstance, ReductionEvent, Status, replay
from .rules import FixpointOptions, FixpointReport, potential, run_fixpoint
from .solver import ORACLE_LIMIT, solve_bb, solve_brute, verify_solution
from .toolkit import generate_planar, kernel_of, make_special_case

# Profile mix used for generated corpora; covers the uniform, ceiling,
# degree-slack and random demand families.
CORPUS_PROFILES = ("random:2", "r:1", "bdvd:1", "pids", "random:3", "r:2", "bdvd:2")


def corpus_instance(seed: int, max_n: int = 14) -> AnnotatedInstance:
    """Deterministic small planar instance for soundness sweeps."""
    span = max_n - 3
    n = 4 + seed % span if span > 0 else max_n
    density = 0.55 + 0.1 * ((seed // 7) % 5)
    base = generate_planar(n, density, seed)
    inst = make_special_case(base, CORPUS_PROFILES[seed % len(CORPUS_PROFILES)], seed=seed)
    inst.budget = seed % 4
    return inst


def oracle_answer(instance: AnnotatedInstance, oracle_limit: int = ORACLE_LIMIT) -> bool:
    """Status-aware exhaustive answer; decided instances keep their decision."""
    if instance.status is Status.DECIDED_YES:
        return True
    if instance.status is Status.DECIDED_NO:
        return False
    return solve_brute(instance, oracle_limit).answer


@dataclass
class InstanceRecord:
    """Everything the checks learned about one instance."""

    seed: int
    instance: AnnotatedInstance
    brute_answer: bool
    report_on: FixpointReport
    report_off: FixpointReport
    event_failures: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def _check_event_chain(
    instance: AnnotatedInstance, events: list[ReductionEvent], expected: bool, oracle_limit: int
) -> tuple[list[str], AnnotatedInstance]:
    """Replay the event log step by step, asking the oracle until an event
    flips the answer; return the flip, if any, and the replayed instance."""
    working = instance.copy()
    failures: list[str] = []
    for idx, event in enumerate(events):
        replay(working, [event])
        if not failures and oracle_answer(working, oracle_limit) != expected:
            failures.append(
                f"event {idx} (rule {event.rule_id}) flipped the answer "
                f"from {expected} to {not expected}"
            )
    return failures, working


def check_instance(
    instance: AnnotatedInstance, seed: int, oracle_limit: int = ORACLE_LIMIT
) -> InstanceRecord:
    """Run the full battery of checks on ``instance``, which is left as it is.

    Every event of the region-rules-on fixpoint is replayed against the
    oracle; both kernels (region rules on and off) are solved and their
    YES witnesses verified; the event count is held to the potential; the
    replay must reproduce the kernel; and ``solve_bb`` must agree with the
    oracle on ``instance`` itself.  ``seed`` only labels the record.
    """
    brute = solve_brute(instance, oracle_limit).answer
    report_on = run_fixpoint(instance.copy(), FixpointOptions())
    report_off = run_fixpoint(instance.copy(), FixpointOptions(enable_region_rules=False))
    event_failures, replayed = _check_event_chain(instance, report_on.events, brute, oracle_limit)
    record = InstanceRecord(seed, instance, brute, report_on, report_off, event_failures)

    for label, report in (("on", report_on), ("off", report_off)):
        kernel = kernel_of(report)
        result = solve_bb(kernel)
        if result.answer != brute:
            record.failures.append(
                f"kernel answer with region rules {label} is {result.answer}, oracle says {brute}"
            )
        elif result.answer and not verify_solution(kernel, result.witness):
            record.failures.append(
                f"branch-and-bound witness for the kernel with region rules {label} "
                "does not verify"
            )

    phi_initial = potential(instance)
    if len(report_on.events) > phi_initial:
        record.failures.append(f"{len(report_on.events)} events exceed the potential {phi_initial}")

    replayed.status = report_on.final_status
    if replayed != report_on.final_instance:
        record.failures.append("replaying the event log did not reproduce the kernel")

    result = solve_bb(instance)
    if result.answer != brute:
        record.failures.append("branch-and-bound disagrees with the oracle")
    elif result.answer and not verify_solution(instance, result.witness):
        record.failures.append("branch-and-bound witness does not verify")

    return record


def evaluate_instance(
    seed: int, oracle_limit: int = ORACLE_LIMIT, max_n: int = 14
) -> InstanceRecord:
    """Run the full battery of checks on the corpus instance of ``seed``."""
    return check_instance(corpus_instance(seed, max_n), seed, oracle_limit)


def run_selftest(count: int = 200, seed0: int = 0, progress=None) -> tuple[int, list[str]]:
    """Check ``count`` seeded instances, one after another.

    The corpus has n <= 14, inside the oracle's default limit, so every
    instance is checked against brute force.  Returns the number of
    instances checked and a list of failure descriptions (empty on
    success).  A negative ``count`` raises ``ValueError``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    failures: list[str] = []
    for i, seed in enumerate(range(seed0, seed0 + count)):
        record = evaluate_instance(seed)
        failures.extend(f"seed {seed}: {msg}" for msg in record.event_failures + record.failures)
        if progress and (i + 1) % 50 == 0:
            progress(i + 1)
    return count, failures

"""General reduction rules and the fixpoint engine.

Rules 1-5 and 13 shrink the graph directly; rules 9-12 create and exploit
forbidden ("blue") vertices; rules 6-8 live in :mod:`vecdom.regions` and
need a planar embedding.  ``run_fixpoint`` drives everything to
exhaustion, logging one replayable event per atomic change, and finally
applies the kernel-size certificate: a fully reduced instance larger than
101 times its budget cannot have a solution.

Each rule describes every change it makes as a :class:`ReductionEvent`
built from the instance's current state, makes the change with
:func:`~vecdom.instance.apply`, and returns the events in the order
applied; ``apply`` is the only code that changes an instance during a
run.  A rule call is one scan in vertex-id order, so runs are
reproducible.  When an event makes a rule apply again at a vertex its scan
has already passed, the fixpoint's next batch of rules picks that up:
``run_fixpoint`` is the only loop that repeats rules.

A note on forbidden vertices: several rules justify themselves by swapping
a hypothetical solution vertex for a named replacement, which silently
assumes the replacement is selectable.  Each of those rules therefore
skips candidates whose replacement targets are forbidden; this keeps every
rule sound for arbitrary forbidden sets supplied in input files, not just
for vertices the engine itself colored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import InitVar, dataclass, field

from .instance import (
    AnnotatedInstance,
    KERNEL_BOUND,
    ReductionEvent,
    Status,
    apply,
    force_into_solution,
    neighborhood,
    require_valid,
    vertex_removal,
)
from .planarity import RotationSystem, embed
from .regions import RegionIndex, rule6, rule7, rule8

KERNEL_FACTOR = 101


@dataclass
class FixpointOptions:
    """How ``run_fixpoint`` runs.

    The kernel-size certificate runs exactly when the region rules do: an
    instance is fully reduced only under them.  ``kernel_certificate`` is
    not stored; when given, it must equal ``enable_region_rules``, or the
    constructor raises ``ValueError``.
    """

    kernel_certificate: InitVar[bool | None] = None
    enable_region_rules: bool = True
    max_rounds: int | None = None

    def __post_init__(self, kernel_certificate):
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        if kernel_certificate is not None and kernel_certificate != self.enable_region_rules:
            raise ValueError(
                "the kernel-size certificate runs exactly when the region rules do; "
                "enable both or neither"
            )


@dataclass
class FixpointReport:
    """What a fixpoint run did and the instance it left.

    ``rounds`` counts the rounds begun; a round runs the local rules to
    exhaustion, then at most one region phase.  ``max_rounds_hit`` means
    the round cap stopped an open run before its first round or after a
    region phase that colored something.  The flag is conservative: the
    cap is checked before the next round's local rules run, so it is set
    even when that round would have changed nothing.  A run that hits the
    cap skips the terminal YES/NO checks, so the flag can cost a decision
    but never an answer.
    """

    events: list[ReductionEvent]
    rounds: int
    final_status: Status
    rule_fire_counts: dict
    final_instance: AnnotatedInstance
    caps_hit: bool = False
    max_rounds_hit: bool = False
    # The last region phase's index; ``kernel_report`` reuses it while it
    # still describes the kernel, and its ``region_sizes`` reads the sides
    # that phase walked and kept and walks the pairs it skipped.
    region_index: RegionIndex | None = field(default=None, repr=False, compare=False)


def rule1(instance: AnnotatedInstance) -> list[ReductionEvent]:
    """Delete every edge joining two zero-demand vertices."""
    d = instance.demand
    events = []
    for u, v in instance.edges():
        if d[u] == 0 and d[v] == 0:
            event = ReductionEvent(rule_id=1, removed_edges=frozenset({(u, v)}))
            events.append(apply(instance, event))
    return events


def rule2(instance: AnnotatedInstance) -> list[ReductionEvent]:
    """Delete every isolated zero-demand vertex, blue or not."""
    events = []
    for v in instance.vertices:
        if instance.demand[v] == 0 and instance.degree(v) == 0:
            events.append(apply(instance, vertex_removal(instance, v, 2)))
    return events


def rule3(instance: AnnotatedInstance) -> list[ReductionEvent]:
    """Force every vertex whose demand exceeds the budget or its degree.

    Forcing lowers the budget and neighbor demands, which can create new
    violations: a later vertex is forced when the scan reaches it, an
    earlier one in the fixpoint's next batch.  Forcing a forbidden vertex
    or overspending decides the instance NO and ends the scan.
    """
    events = []
    for v in instance.vertices:
        if instance.status is not Status.OPEN:
            break
        d = instance.demand[v]
        if d > instance.budget or d > instance.degree(v):
            events.append(force_into_solution(instance, v, rule_id=3))
    return events


def _common_closed_neighborhood(
    instance: AnnotatedInstance, xs: set[int], within: set[int] | None = None
) -> set[int]:
    """The vertices of ``within``, all by default, that lie in ``N[x]`` for
    every ``x`` of the non-empty ``xs``, as a new set.

    Each step intersects with the smaller side, so it costs at most the
    vertices still left, and the scan stops once none are.
    """
    if within is None:
        start = min(xs, key=instance.degree)
        common = instance.neighbors(start) | {start}
    else:
        common = set(within)
    for x in xs:
        if not common:
            break
        kept = x in common
        common &= instance.neighbors(x)
        if kept:
            common.add(x)
    return common


def rule4(instance: AnnotatedInstance) -> list[ReductionEvent]:
    """Strip redundant edges at zero-demand vertices.

    If some selectable witness ``a`` sees all of ``N(v)``, any solution
    leaning on ``v`` could use ``a`` instead, so the edges from ``v`` to
    demand-1 neighbors, and to ``a`` itself, carry no information.

    ``N(v) ⊆ N[a]`` holds exactly when ``a`` lies in the common closed
    neighborhood ``⋂_{u ∈ N(v)} N[u]``, so the witnesses of ``v`` are that
    set's selectable vertices other than ``v``, tried in id order as a scan
    over every vertex would.  An event at ``v`` deletes only edges at
    ``v``: ``N(v)`` shrinks and its remaining vertices keep their
    neighborhoods, so the set is recomputed after each event and the scan
    resumes past the last witness.  Once ``N(v)`` is empty there is
    nothing left to strip.
    """
    events = []
    demand, forbidden = instance.demand, instance.forbidden
    for v in instance.vertices:
        if demand[v] != 0:
            continue
        nv = instance.neighbors(v)
        last = None
        while nv:
            ones = {u for u in nv if demand[u] == 1}
            # Without demand-1 neighbors only the edge to ``a`` can go.
            a = min(
                (
                    a for a in _common_closed_neighborhood(instance, nv)
                    if a != v and a not in forbidden
                    and (last is None or a > last) and (ones or a in nv)
                ),
                default=None,
            )
            if a is None:
                break
            doomed = ones | {a} if a in nv else ones
            removed = frozenset((v, u) if v <= u else (u, v) for u in doomed)
            events.append(apply(instance, ReductionEvent(rule_id=4, removed_edges=removed)))
            last = a
    return events


def rule5(instance: AnnotatedInstance) -> list[ReductionEvent]:
    """Force a witness that covers everything a demand-1 vertex could need.

    The witness ``a`` must be selectable and adjacent to ``v``, and every
    other vertex of ``N[v]`` must have demand at most one with all of its
    demanding closed neighborhood inside ``N[a]``; then some solution
    contains ``a``.  Forcing ``a`` drops ``v``'s demand to zero, so the
    scan moves on to the next vertex; the witness itself may be a later
    vertex, which the scan then skips.  Overspending the budget decides
    the instance NO and ends the scan.

    Two necessary conditions pick the candidates before any
    ``neighborhood`` is computed.  A neighbor of demand two or more can
    only be the witness itself, so two of them rule ``v`` out and one is
    the only candidate.  And every vertex of ``N(v)`` other than ``a``
    lies in ``N[a]``, so ``a`` lies in ``⋂_{u ∈ N(v)} N[u]``.  Candidates
    are tried in id order and the first that passes the full test is
    forced, the witness the scan over all of ``N(v)`` would find.
    """
    events = []
    demand, forbidden = instance.demand, instance.forbidden
    for v in instance.vertices:
        if instance.status is not Status.OPEN:
            break
        if not instance.has_vertex(v) or demand[v] != 1:
            continue
        nv = instance.neighbors(v)
        high = {u for u in nv if demand[u] >= 2}
        if len(high) > 1:
            continue
        candidates = _common_closed_neighborhood(instance, nv, (high or nv) - forbidden)
        for a in sorted(candidates):
            closed_a = instance.neighbors(a) | {a}
            if all(neighborhood(instance, u) <= closed_a for u in sorted((nv | {v}) - {a})):
                events.append(force_into_solution(instance, a, rule_id=5))
                break
    return events


def rule9(instance: AnnotatedInstance) -> list[ReductionEvent]:
    """Color a low-demand vertex blue when a selectable witness dominates its
    demanding closed neighborhood and at most one selectable high-demand
    fallback exists among its other neighbors.

    A witness ``w`` sees all of ``neighborhood(v)`` but not itself, so it
    has demand 0 and the fallbacks, the neighbors of demand at least two,
    do not depend on it.  As in rules 4, 5 and 12, the witnesses are the
    selectable neighbors of ``v`` in the common closed neighborhood of
    ``neighborhood(v)``, outside that set.
    """
    demand, forbidden = instance.demand, instance.forbidden
    events = []
    for v in instance.vertices:
        if v in forbidden or demand[v] > 1:
            continue
        nv = instance.neighbors(v)
        fallbacks = {z for z in nv if demand[z] >= 2}
        if len(fallbacks) > 1 or fallbacks & forbidden:
            continue
        closed = neighborhood(instance, v)
        if _common_closed_neighborhood(instance, closed, nv - forbidden) - closed:
            events.append(apply(instance, ReductionEvent(rule_id=9, newly_blue=frozenset({v}))))
    return events


def rule10(instance: AnnotatedInstance) -> list[ReductionEvent]:
    """Delete edges between blue vertices, then delete blue zero-demand vertices."""
    events = []
    for u, v in instance.edges():
        if u in instance.forbidden and v in instance.forbidden:
            event = ReductionEvent(rule_id=10, removed_edges=frozenset({(u, v)}))
            events.append(apply(instance, event))
    for v in instance.vertices:
        if v in instance.forbidden and instance.demand[v] == 0:
            events.append(apply(instance, vertex_removal(instance, v, 10)))
    return events


def rule11(instance: AnnotatedInstance) -> list[ReductionEvent]:
    """Shortcut a demanding blue vertex of degree two whose neighbors are adjacent.

    One of the two neighbors must be selected for the blue vertex's sake,
    so the edge between them is spent either way: drop it and lower both
    demands.  Blue vertices of demand zero are rule 10's business.
    """
    events = []
    for v in instance.vertices:
        if v not in instance.forbidden or instance.demand[v] < 1:
            continue
        nbrs = sorted(instance.neighbors(v))
        if len(nbrs) != 2:
            continue
        u, w = nbrs
        if not instance.has_edge(u, w):
            continue
        events.append(apply(instance, ReductionEvent(
            rule_id=11,
            removed_edges=frozenset({(u, w)}),
            demand_deltas={x: -1 for x in (u, w) if instance.demand[x] > 0},
        )))
    return events


def rule12(instance: AnnotatedInstance) -> list[ReductionEvent]:
    """Zero the demand of a 1-vertex whose closed neighborhood swallows some
    demanding blue vertex's neighborhood: whatever serves the blue vertex
    serves it too.

    ``N(v) ⊆ N[u]`` holds exactly when ``u`` lies in ``⋂_{x ∈ N(v)} N[x]``,
    so the blue ``v``'s candidates are that set's vertices other than
    ``v``, in id order.  The rule changes only demands, so the set is
    computed once per ``v``, and a candidate's demand is read when the
    scan reaches it.
    """
    events = []
    demand = instance.demand
    for v in instance.vertices:
        if v not in instance.forbidden or demand[v] < 1:
            continue
        nv = instance.neighbors(v)
        if not nv:
            continue
        for u in sorted(_common_closed_neighborhood(instance, nv) - {v}):
            if demand[u] == 1:
                events.append(apply(instance, ReductionEvent(rule_id=12, demand_deltas={u: -1})))
    return events


def rule13(instance: AnnotatedInstance) -> list[ReductionEvent]:
    """Collapse twin zero-demand vertices of degree two onto one representative.

    Only selectable twins over a selectable neighbor pair participate:
    the justification swaps a deleted twin for the kept one, or for the
    common neighbors, so all of those must be available.
    """
    groups: dict[frozenset[int], list[int]] = {}
    for v in instance.vertices:
        if instance.demand[v] != 0 or v in instance.forbidden:
            continue
        nbrs = instance.neighbors(v)
        if len(nbrs) != 2 or nbrs & instance.forbidden:
            continue
        groups.setdefault(frozenset(nbrs), []).append(v)
    events = []
    for key in sorted(groups, key=sorted):
        twins = sorted(groups[key])
        for v in twins[1:]:
            events.append(apply(instance, vertex_removal(instance, v, 13)))
    return events


# In the order the fixpoint runs them.
_LOCAL_RULES = {
    1: rule1,
    2: rule2,
    3: rule3,
    13: rule13,
    4: rule4,
    5: rule5,
    9: rule9,
    10: rule10,
    11: rule11,
    12: rule12,
}


def _region_phase(
    instance: AnnotatedInstance, index: RegionIndex
) -> tuple[list[ReductionEvent], bool]:
    """Run rules 6-8 over all maximal candidate regions of ``index`` that
    can color.

    The index must describe the instance.  Coloring never touches the
    graph or demands, so the index serves the whole phase.  The phase is
    one scan over the pairs in order.  It skips an anchor that was blue
    when the phase started, and the cap flag covers every other pair.  The
    rules color nothing in a region with a forbidden anchor, so the phase
    builds no regions for a pair with an anchor blue now, colored earlier
    in the same scan included.

    A pair's regions are built only when the pair has two typed paths
    under the cap, since one path closes no cycle, and passes
    ``index.may_color``: some vertex ``w`` off the anchors has demand at
    least one, and ``w`` and each of its neighbors off the anchors have
    demand at most their number of adjacent anchors.  Skipping the other
    pairs loses no event:

    - a region whose core holds no vertex of positive demand makes rules
      6, 7 and 8 return nothing, whatever the forbidden set: their scan
      ``_color_unless`` spares every ``u``, as ``dominates({u}, core)`` holds;
    - a core vertex is interior, and so passes the dominance test that
      regions are built with (demand at most the number of adjacent
      anchors), which ``cycle_sides`` applies to every vertex of a side.
      It has no internal-boundary neighbor, and a vertex strictly inside
      a cycle has its neighbors inside or on the cycle, so every neighbor
      off the anchors is interior and passes the test too.  A core vertex
      of positive demand is such a ``w``.

    ``kernel_report`` later counts, on the last phase's index, the maximal
    sides of the pairs that phase skipped, without building their regions.
    """
    forbidden = instance.forbidden
    blue_at_start = set(forbidden)
    events: list[ReductionEvent] = []
    caps_hit = False
    for a1 in instance.vertices:
        if a1 in blue_at_start:
            continue
        for a2, (interiors, capped) in index.typed_paths(a1).items():
            if a2 in blue_at_start:
                continue
            caps_hit |= capped
            if (
                len(interiors) > 1
                and a1 not in forbidden
                and a2 not in forbidden
                and index.may_color(a1, a2)
            ):
                for region in index.regions(a1, a2):
                    events.extend(rule6(instance, region))
                    events.extend(rule7(instance, region))
                    events.extend(rule8(instance, region))
    return events, caps_hit


def potential(instance: AnnotatedInstance) -> int:
    """Strictly decreasing under every rule event, so it bounds the event count."""
    free = instance.n - len(instance.forbidden)
    return 2 * instance.n + instance.m + instance.total_demand() + free


def run_fixpoint(
    instance: AnnotatedInstance,
    options: FixpointOptions | None = None,
    embedding: RotationSystem | None = None,
) -> FixpointReport:
    """Reduce the instance until no rule fires, then apply the terminal checks.

    Mutates the instance in place.  Planarity is a precondition.  The run
    starts from ``embedding`` when that describes the instance, and
    otherwise embeds the instance itself, which raises ``NonPlanarError``
    on a non-planar graph; an invalid instance raises
    ``InvalidInstanceError`` either way.  ``embed`` is deterministic, so
    an embedding it returned for an instance with the same graph gives
    the same run: a caller that reduces several copies of one instance
    tests planarity once.

    A round runs the cheap local rules to exhaustion, then one region
    phase on a new index, which reuses the embedding while that still
    describes the graph.  The run stops when the phase colors nothing,
    or when the last phase's index still describes the instance, because
    then a new phase could color nothing either: rules 6-8 read only the
    graph, the demands and the index's regions, the phase skips a pair
    or region only for forbidden vertices, the rules skip only vertices
    already blue, and the forbidden set only grows.  At quiescence:
    demand-free instances with budget left are YES; and with the
    region rules on, the certificate decides a reduced instance bigger
    than 101 times its remaining budget NO.

    Every change goes through ``apply`` and is logged, the certificate's
    NO included, except the terminal YES: that is a plain status write
    without an event, so a YES run's log holds only its reductions.
    """
    options = options or FixpointOptions()
    if embedding is not None and embedding.describes(instance):
        require_valid(instance)
        rs = embedding
    else:
        # embed validates the instance too, and raises NonPlanarError, with
        # a witness, on a graph with too many edges as well.
        rs = embed(instance)

    events: list[ReductionEvent] = []
    rounds = 0
    caps_hit = False
    max_rounds_hit = False
    region_index = None

    while instance.status is Status.OPEN:
        if options.max_rounds is not None and rounds >= options.max_rounds:
            max_rounds_hit = True
            break
        rounds += 1
        while instance.status is Status.OPEN:
            batch: list[ReductionEvent] = []
            for rule in _LOCAL_RULES.values():
                batch.extend(rule(instance))
                if instance.status is not Status.OPEN:
                    break
            events.extend(batch)
            if not batch:
                break
        if instance.status is not Status.OPEN or not options.enable_region_rules:
            break
        # A phase over the last phase's graph and demands colors nothing.
        if region_index is not None and region_index.describes(instance):
            break
        if not rs.describes(instance):
            rs = embed(instance)
        region_index = RegionIndex(instance, rs)
        region_events, truncated = _region_phase(instance, region_index)
        caps_hit |= truncated
        events.extend(region_events)
        if not region_events:
            break

    if instance.status is Status.OPEN and not max_rounds_hit:
        if not any(instance.demand.values()) and instance.budget >= 0:
            instance.status = Status.DECIDED_YES
        elif (
            options.enable_region_rules
            and not caps_hit
            and instance.n > KERNEL_FACTOR * instance.budget
        ):
            events.append(apply(
                instance, ReductionEvent(rule_id=KERNEL_BOUND, status_after=Status.DECIDED_NO)
            ))

    return FixpointReport(
        events=events,
        rounds=rounds,
        final_status=instance.status,
        rule_fire_counts=dict(Counter(ev.rule_id for ev in events)),
        caps_hit=caps_hit,
        max_rounds_hit=max_rounds_hit,
        final_instance=instance,
        region_index=region_index,
    )

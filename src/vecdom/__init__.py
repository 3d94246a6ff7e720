"""vecdom: reduction rules, linear kernels, and exact solvers for planar
vector domination.

The library is organized around one mutable :class:`AnnotatedInstance`
(graph, demands, budget, forbidden vertices), a combinatorial planar
embedding layer, thirteen answer-preserving reduction rules driven to a
fixpoint, candidate-region machinery for the planar coloring rules, and
exact solvers, two exhaustive oracles and a branch-and-bound search,
whose agreement is the ground truth for everything else.
"""

from .instance import (
    AnnotatedInstance,
    InvalidInstanceError,
    ReductionEvent,
    Status,
    UnknownVertexError,
    VecdomError,
    dominates,
    neighborhood,
    replay,
    validate,
)
from .planarity import (
    NonPlanarError,
    NotACycleError,
    RotationSystem,
    StaleEmbeddingError,
    cycle_sides,
    embed,
)
from .regions import (
    CandidateRegion,
    MalformedPathError,
    RegionIndex,
    rule6,
    rule7,
    rule8,
)
from .rules import (
    FixpointOptions,
    FixpointReport,
    potential,
    rule1,
    rule2,
    rule3,
    rule4,
    rule5,
    rule9,
    rule10,
    rule11,
    rule12,
    rule13,
    run_fixpoint,
)
from .solver import (
    NodeBudgetError,
    OracleLimitError,
    SolveResult,
    solve_bb,
    solve_brute,
    verify_solution,
)
from .toolkit import (
    KernelStats,
    ParseError,
    format_stats,
    generate_planar,
    kernel_of,
    kernel_report,
    make_special_case,
    parse,
    write,
)
from .cli import cli_main

__version__ = "0.1.0"

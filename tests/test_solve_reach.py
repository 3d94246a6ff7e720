"""``solve_bb`` agrees with integer programming beyond brute force's reach.

``tools/solve_reach.py`` decides its instances with the HiGHS optimum of
``perfbench/oracle.py``, which needs scipy from the bench extra; the tool
imports only the standard library at module level, so it is loaded here
by file path.
"""

import random
from pathlib import Path

import pytest

import vecdom
from vecdom import Status
from vecdom.selftest import corpus_instance

from conftest import load_by_path

pytest.importorskip("scipy", exc_type=ImportError)

REACH = Path(__file__).resolve().parent.parent / "tools" / "solve_reach.py"


def load_reach():
    return load_by_path("solve_reach", REACH)


@pytest.mark.parametrize("n, kernel", [(40, False), (60, False), (80, True), (120, True)])
def test_solve_bb_agrees_with_highs_at_mid_size(n, kernel):
    reach = load_reach()
    instance = reach.reach_instance(vecdom, n)
    opt = reach.optimum(instance)
    for k in (opt - 1, opt):
        solved, result = reach.solve(vecdom, instance, k, kernel)
        assert result is not None, f"n={n} k={k}: over {reach.NODE_BUDGET} nodes"
        assert result.answer == (reach.optimum(solved) <= solved.budget) == (k == opt)
        if result.answer:
            assert vecdom.verify_solution(solved, result.witness)


def relabel_inputs():
    """Corpus seeds 0-59, each with two seeded forbidden vertices, and the
    open kernels, whose ids have holes, of density-0.8 ``r:1`` graphs at
    n=60 and k=12, seeds 0-39."""
    for seed in range(60):
        inst = corpus_instance(seed)
        inst.forbidden |= set(random.Random(seed).sample(inst.vertices, 2))
        yield f"corpus/{seed}", inst
    for seed in range(40):
        inst = vecdom.make_special_case(vecdom.generate_planar(60, 0.8, seed), "r:1")
        inst.budget = 12
        report = vecdom.run_fixpoint(inst)
        if report.final_status is Status.OPEN:
            yield f"kernel/{seed}", vecdom.kernel_of(report)


def test_optimum_is_the_smallest_budget_brute_force_accepts():
    # ``solve_brute`` tries subsets smallest first, so at k = n its witness
    # has the optimum's size, and it says NO exactly when no selectable set
    # meets every demand.
    reach = load_reach()
    infeasible = holes = 0
    for name, inst in relabel_inputs():
        everything = inst.copy()
        everything.budget = everything.n
        result = vecdom.solve_brute(everything)
        if result.answer:
            assert reach.optimum(inst) == len(result.witness), name
        else:
            infeasible += 1
            with pytest.raises(RuntimeError):
                reach.optimum(inst)
        holes += inst.vertices != list(range(inst.n))
    assert infeasible and holes

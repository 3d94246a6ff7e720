"""``solve_bb`` agrees with integer programming beyond brute force's reach.

``tools/solve_reach.py`` decides its instances with HiGHS through scipy,
which only the bench extra installs; the tool imports only the standard
library at module level, so it is loaded here by file path.
"""

import importlib.util
from pathlib import Path

import pytest

import vecdom

pytest.importorskip("scipy", exc_type=ImportError)

REACH = Path(__file__).resolve().parent.parent / "tools" / "solve_reach.py"


def load_reach():
    spec = importlib.util.spec_from_file_location("solve_reach", REACH)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    return reach


@pytest.mark.parametrize("n, kernel", [(40, False), (60, False), (80, True)])
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

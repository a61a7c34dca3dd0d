import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from newton_segre import feasible, solve_lp


def scipy_packing(points, target):
    """Float oracle: max sum lambda_j subject to sum_j lambda_j v_j <= target."""
    n, k = len(target), len(points)
    ref = linprog(c=[-1] * k, A_ub=[[v[i] for v in points] for i in range(n)],
                  b_ub=[float(x) for x in target], bounds=[(0, None)] * k,
                  method="highs")
    assert ref.success
    return -ref.fun


def test_symmetric_two_point_problem():
    # the diagonal exit s >= max(3 - 2 lam, 1 + 2 lam) is smallest at s = 2
    assert solve_lp([(1, 3), (3, 1)]) == F(1, 2)


def test_diagonal_exit_of_maximal_ideal():
    assert solve_lp([(1, 0), (0, 1)]) == 2


def test_diagonal_exit_of_pure_powers():
    # (x1^2, x2^3): the diagonal meets the segment at s = 6/5
    assert solve_lp([(2, 0), (0, 3)]) == F(5, 6)


def test_feasibility_helper():
    points = [(2, 0), (0, 3)]
    assert feasible(points, (2, 0))
    assert feasible(points, (F(6, 5), F(6, 5)))  # on the diagram
    assert feasible(points, (5, F(1, 3)))
    assert not feasible(points, (1, 1))
    assert solve_lp(points, (2, 0)) == 1
    assert solve_lp(points, (F(6, 5), F(6, 5))) == 1


def test_infeasible_system():
    assert not feasible([(1, 0), (0, 1)], (F(1, 4), F(1, 4)))
    assert solve_lp([(1, 0), (0, 1)], (F(1, 4), F(1, 4))) == F(1, 2)


def test_negative_target_is_infeasible():
    # every point is non-negative, so no combination lies below a negative coordinate
    assert not feasible([(1, 0), (0, 1)], (-1, 5))
    assert not feasible([(0, 0, 1)], (4, 4, F(-1, 2)))


@pytest.mark.parametrize("seed", range(40))
def test_random_lps_match_scipy(seed):
    """Exact packing LPs on seeded point sets up to 5-D with 8 points match highs."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    points = [tuple(rng.randint(0, 9) for _ in range(n)) for _ in range(rng.randint(1, 8))]
    points = [v for v in points if any(v)] or [(1,) * n]
    assert abs(float(solve_lp(points)) - scipy_packing(points, (1,) * n)) < 1e-9
    for _ in range(5):
        target = tuple(F(rng.randint(0, 30), rng.randint(1, 3)) for _ in range(n))
        optimum = scipy_packing(points, target)
        assert abs(float(solve_lp(points, target)) - optimum) < 1e-9
        assert feasible(points, target) == (optimum > 1 - 1e-9)


@st.composite
def hull_problems(draw):
    n = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(0, 6)] * n).filter(any)
    points = draw(st.lists(point, min_size=1, max_size=6))
    coordinate = st.builds(F, st.integers(-2, 14), st.integers(1, 3))
    target = draw(st.one_of(st.sampled_from(points), st.tuples(*[coordinate] * n)))
    return points, target


@given(hull_problems())
def test_hull_lps_match_scipy(problem):
    points, target = problem
    n = len(target)
    assert abs(float(solve_lp(points)) - scipy_packing(points, (1,) * n)) < 1e-9
    inside = all(x >= 0 for x in target) and scipy_packing(points, target) > 1 - 1e-9
    assert feasible(points, target) == inside

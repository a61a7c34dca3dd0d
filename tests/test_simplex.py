import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from newton_segre import InvalidInput, feasible, linalg, simplex, solve_lp


def _oracle_pivot(T, basis, r, c):
    inv = T[r][c]
    T[r] = [x / inv for x in T[r]]
    for i, row in enumerate(T):
        if i != r and row[c] != 0:
            f = row[c]
            T[i] = [a - f * b for a, b in zip(row, T[r])]
    basis[r] = c


def oracle_solve_lp(points, target=None, pivots=None):
    """Exact reference: the same simplex with Bland's rule on a dense
    fractions.Fraction tableau, normalising the pivot row at every step.
    Appends the (row, column) of each pivot to pivots when given."""
    n, k = len(points[0]), len(points)
    p = (1,) * n if target is None else target
    T = [[F(v[i]) for v in points] + [F(int(j == i)) for j in range(n)] + [F(p[i])]
         for i in range(n)]
    basis = list(range(k, k + n))
    z = [F(-1)] * k + [F(0)] * (n + 1)
    while True:
        entering = next((c for c in range(k + n) if z[c] < 0), None)
        if entering is None:
            return z[-1]
        _, _, leaving = min((row[-1] / row[entering], basis[r], r)
                            for r, row in enumerate(T) if row[entering] > 0)
        f = z[entering]
        if pivots is not None:
            pivots.append((leaving, entering))
        _oracle_pivot(T, basis, leaving, entering)
        z = [a - f * t for a, t in zip(z, T[leaving])]


def oracle_feasible(points, target):
    return all(x >= 0 for x in target) and oracle_solve_lp(points, target) >= 1


def _solve_with_pivots(points, target=None):
    """solve_lp's optimum and the (row, column) of each pivot it takes,
    checking that every tableau it pivots holds only ints."""
    pivots = []

    def recording(m, r, c, prev):
        assert all(type(x) is int for row in m for x in row)
        pivots.append((r, c))
        return linalg._pivot(m, r, c, prev)

    with mock.patch.object(simplex, "_pivot", recording):
        return solve_lp(points, target), pivots


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


def _seeded_problem(seed):
    """The points and the five targets test_random_lps_match_scipy draws for seed."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    points = [tuple(rng.randint(0, 9) for _ in range(n)) for _ in range(rng.randint(1, 8))]
    points = [v for v in points if any(v)] or [(1,) * n]
    return points, [tuple(F(rng.randint(0, 30), rng.randint(1, 3)) for _ in range(n))
                    for _ in range(5)]


@pytest.mark.parametrize("seed", range(40))
def test_seeded_lps_equal_the_fraction_oracle(seed):
    points, targets = _seeded_problem(seed)
    assert solve_lp(points) == oracle_solve_lp(points)
    for target in targets:
        assert solve_lp(points, target) == oracle_solve_lp(points, target)
        assert feasible(points, target) == oracle_feasible(points, target)


@st.composite
def tied_problems(draw):
    """Point sets with repeated points, collinear runs a, a+d, a+2d and points
    above others (a+d and the points above are not extreme), so the ratio
    test ties; targets are rational, the points themselves or rational
    multiples of them."""
    n = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(0, 5)] * n)
    points = draw(st.lists(vector.filter(any), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 4))):
        u, d = draw(st.sampled_from(points)), draw(vector)
        kind = draw(st.sampled_from(["repeat", "collinear", "above"]))
        if kind == "repeat":
            points.append(u)
        elif kind == "collinear":
            points += [tuple(a + t * b for a, b in zip(u, d)) for t in (1, 2)]
        else:
            points.append(tuple(a + b for a, b in zip(u, d)))
    points = draw(st.permutations(points))
    coordinate = st.builds(F, st.integers(-1, 20), st.integers(1, 6))
    scale = st.builds(F, st.integers(1, 12), st.integers(1, 6))
    target = draw(st.one_of(
        st.tuples(*[coordinate] * n), st.sampled_from(points),
        st.builds(lambda v, s: tuple(s * x for x in v), st.sampled_from(points), scale)))
    return points, target


@given(tied_problems())
def test_lps_equal_the_fraction_oracle(problem):
    """Same optimum and same pivots as the Fraction tableau, ties included."""
    points, target = problem
    nonnegative = all(x >= 0 for x in target)
    for p in (None, target) if nonnegative else (None,):
        value, pivots = _solve_with_pivots(points, p)
        expected = []
        assert type(value) is F and value == oracle_solve_lp(points, p, expected)
        assert pivots == expected
    if not nonnegative:
        with pytest.raises(InvalidInput):
            solve_lp(points, target)
    assert feasible(points, target) == oracle_feasible(points, target)


def test_one_pivot_step(monkeypatch):
    """solve_lp and linalg's elimination pivot through the same function."""
    assert simplex._pivot is linalg._pivot
    step, pivots = linalg._pivot, []

    def counting(m, r, c, prev):
        pivots.append((r, c))
        return step(m, r, c, prev)

    monkeypatch.setattr(linalg, "_pivot", counting)
    assert linalg.kernel_basis([[1, 2, 3], [4, 5, 6]]) == [[-3, 6, -3]]
    assert pivots == [(0, 0), (1, 1)]


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

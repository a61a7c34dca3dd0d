"""Streaming in fixed-size blocks: the float and exact lattice estimates and
the two identity checks sum their columns or points one block at a time, so
their values do not depend on the block size and their memory does not grow
with the sum."""

import importlib
from fractions import Fraction as F

import pytest

from newton_segre import (EstimateTooLarge, EstimatorConfig, estimate, make_ideal,
                          verify_diagonal_identity, verify_two_variable_identity)
from tests.conftest import traced_peak

# the package re-exports the function polygamma under the module's name
pg = importlib.import_module("newton_segre.polygamma")
lattice = importlib.import_module("newton_segre.lattice")

MiB = 1 << 20


def float_estimate(gens, m, X, cutoff=None):
    ideal = make_ideal(len(X), gens)
    return estimate(ideal, EstimatorConfig(m=m, X=X, ray_cutoff=cutoff))


def exact_estimate(gens, m, X):
    ideal = make_ideal(len(X), gens)
    return estimate(ideal, EstimatorConfig(m=m, X=X, arithmetic="exact_rational"))


# each sum spans many blocks of 7 and ends inside one; the float estimates
# split their outer grids along the longest axis, in whole rows
CASES = {
    "2d": lambda: float_estimate([(2, 0), (1, 1), (0, 3)], 41, (F(1, 3), F(1, 2))),
    "3d": lambda: float_estimate([(2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 1)], 9,
                                 (F(1, 2), F(1, 3), F(1, 5))),
    # a3 <= 3: blocks of 7 columns hold two rows of the split axis
    "3d-thin": lambda: float_estimate([(20, 0, 0), (0, 15, 0), (0, 0, 1), (3, 2, 0)], 3,
                                      (F(1, 2), F(1, 3), F(1, 5))),
    # x2 unbounded: a core cell and a tail cell along a2
    "tail": lambda: float_estimate([(2, 0), (1, 1)], 10, (F(1, 2), F(2, 3)), cutoff=250),
    # exact mode enumerates the 82 x 123 box along its longest axis
    "exact": lambda: exact_estimate([(2, 0), (1, 1), (0, 3)], 41, (F(1, 3), F(1, 2))),
    # default cutoff 2495: a tail of 2486 terms after a staircase of 9
    "two-var": lambda: verify_two_variable_identity(2, 1.0, 0.5, 5),
    "diagonal": lambda: verify_diagonal_identity(2, 3, 1.0, 0.5, 5),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_size_does_not_change_sums(case, monkeypatch):
    values = []
    for chunk in (1, 7, pg._CHUNK):
        monkeypatch.setattr(pg, "_CHUNK", chunk)
        values.append(CASES[case]())
    default = values[-1]
    assert default != 0
    for value in values:
        if isinstance(default, F):
            assert value == default
        else:
            assert abs(value - default) <= 1e-13 * abs(default)


def test_float_estimate_memory_is_bounded(monkeypatch):
    gens, X = [(2, 0, 0), (0, 2, 0), (0, 0, 2)], (F(1, 2), F(1, 3), F(1, 5))
    float_estimate(gens, 20, X)  # imports and caches
    # the cell's 1000 x 1000 outer grid: 10^6 columns
    monkeypatch.setattr(lattice, "MAX_COLUMNS", 10 ** 6 - 1)
    with pytest.raises(EstimateTooLarge, match="1000000 lattice columns"):
        float_estimate(gens, 500, X)
    monkeypatch.undo()
    value, peak = traced_peak(float_estimate, gens, 500, X)
    assert 0 < value < 1
    assert peak < 2 * MiB


def test_float_estimate_refuses_a_long_cell_walk(monkeypatch):
    # x1 in 24 variables: x2..x24 are seen by no facet and always take the
    # tail, x1 is bounded and never does, so the one cell is counted at once
    with pytest.raises(EstimateTooLarge, match=f"{2 * 40 ** 22} lattice columns"):
        float_estimate([(1,) + (0,) * 23], 2, (1,) * 24)
    # both axes are unbounded and seen by a facet: four cells to walk
    assert float_estimate([(1, 1)], 3, (F(1, 2), F(1, 3))) > 0
    monkeypatch.setattr(lattice, "MAX_COLUMNS", 3)
    with pytest.raises(EstimateTooLarge, match="walk 4 cells"):
        float_estimate([(1, 1)], 3, (F(1, 2), F(1, 3)))


def test_exact_estimate_memory_is_bounded():
    gens, X = [(2, 0), (0, 2)], (F(1, 2), F(1, 3))
    exact_estimate(gens, 20, X)  # imports and caches
    # a 1000 x 1000 box: 10^6 lattice points
    value, peak = traced_peak(exact_estimate, gens, 500, X)
    assert 0 < value < 1
    assert peak < 2 * MiB


def test_identity_memory_is_bounded():
    verify_two_variable_identity(2, 0.5, 0.5, 10)  # imports and caches
    # about 10^6 polygamma terms
    value, peak = traced_peak(verify_two_variable_identity, 2, 0.5, 0.5, 100, 10 ** 6 - 201)
    assert abs(value - 0.5) < 1e-2
    assert peak < 2 * MiB


def test_bernoulli_refuses_past_its_table_before_allocating():
    """The tangent recurrence takes about K^3 steps on growing integers; the
    package reads at most _MAX_BERNOULLI numbers, and no more are made."""
    assert len(pg.bernoulli(pg._MAX_BERNOULLI)) == pg._MAX_BERNOULLI
    with pytest.raises(EstimateTooLarge, match=str(pg._MAX_BERNOULLI + 1)):
        pg.bernoulli(pg._MAX_BERNOULLI + 1)

    def refused():
        with pytest.raises(EstimateTooLarge, match="10000000 Bernoulli numbers"):
            pg.bernoulli(10 ** 7)

    _, peak = traced_peak(refused)
    assert peak < MiB


def test_oversized_identity_refuses_before_allocating():
    verify_two_variable_identity(2, 0.5, 0.5, 10)

    def refused():
        with pytest.raises(EstimateTooLarge, match="99999397 polygamma terms"):
            verify_two_variable_identity(1, 0.01, 1.0, 5)

    _, peak = traced_peak(refused)
    assert peak < MiB

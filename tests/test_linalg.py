"""Property tests of the fraction-free elimination in newton_segre.linalg.

The oracle is plain Gauss-Jordan elimination over Fraction, the textbook
algorithm, kept here only as a reference. Matrices are integer, the only
input linalg takes, with up to 6 rows and 7 columns and entries up to about
10^7 (the size of cross-stretched ideals); some rows are integer
combinations of others, so most matrices are rank deficient. A guard test
checks that the package's geometry hands the elimination nothing but ints.
"""

import random
import sys
from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

import newton_segre
from newton_segre import cone_decomposition, linalg, newton_polyhedron, segre_class
from newton_segre.decompose import piece_membership
from newton_segre.linalg import det, dot, kernel_basis, rank, rref
from tests.conftest import random_ideal


def oracle_rref(rows):
    m = [[F(x) for x in row] for row in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def oracle_det(rows):
    m = [[F(x) for x in row] for row in rows]
    n = len(m)
    result = F(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return F(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            result = -result
        result *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


_ENTRIES = st.one_of(st.integers(-10 ** 7, 10 ** 7), st.integers(-3, 3))


@st.composite
def deficient_matrices(draw, square=False):
    """Integer matrices in which some rows are combinations of the others."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 7))
    independent = draw(st.integers(1, nrows))
    rows = [draw(st.lists(_ENTRIES, min_size=ncols, max_size=ncols))
            for _ in range(independent)]
    for _ in range(nrows - independent):
        weights = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                max_size=len(rows)))
        rows.append([sum(w * row[j] for w, row in zip(weights, rows))
                     for j in range(ncols)])
    return draw(st.permutations(rows))


@given(deficient_matrices())
def test_rref_and_rank_match_the_fraction_oracle(rows):
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == oracle_rref(rows)
    assert rank(rows) == len(pivots)


@given(deficient_matrices(square=True))
def test_det_matches_the_fraction_oracle(rows):
    value = det(rows)
    assert type(value) is int
    assert value == oracle_det(rows)


@given(deficient_matrices())
def test_kernel_basis_is_integral_and_annihilates(rows):
    basis = kernel_basis(rows)
    assert len(basis) == len(rows[0]) - rank(rows)
    for v in basis:
        assert all(type(x) is int for x in v)
        assert all(dot(row, v) == 0 for row in rows)
    if basis:
        assert rank(basis) == len(basis)


def _record_entry_types(monkeypatch, seen):
    """Wrap rref, rank, kernel_basis and det in every package namespace that
    holds them, adding the type of each matrix entry they receive to seen."""
    for name in ("rref", "rank", "kernel_basis", "det"):
        function = getattr(linalg, name)

        def recording(rows, function=function):
            seen.update(type(x) for row in rows for x in row)
            return function(rows)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == newton_segre.__name__:
                for attr, value in list(vars(module).items()):
                    if value is function:
                        monkeypatch.setattr(module, attr, recording)


def test_only_ints_reach_the_elimination(monkeypatch):
    """The polyhedron, its pieces, the Segre class and membership of rational
    points eliminate integer rows only, for n = 2..5."""
    seen = set()
    _record_entry_types(monkeypatch, seen)
    rng = random.Random(19)
    newton_polyhedron.cache_clear()
    for n in (2, 3, 4, 5):
        ideal = random_ideal(rng, n, max_gens=4, max_exp=4)
        pieces = cone_decomposition(newton_polyhedron(ideal))
        segre_class(ideal, ambient_dim=n)
        for piece in pieces:
            point = tuple(F(rng.randint(0, 30), rng.randint(1, 6)) for _ in range(n))
            piece_membership(piece, point)
    assert seen == {int}

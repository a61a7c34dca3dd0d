"""Property tests of the fraction-free elimination in newton_segre.linalg.

The oracle is plain Gauss-Jordan elimination over Fraction, the textbook
algorithm, kept here only as a reference. Matrices have up to 6 rows and 7
columns and entries up to about 10^7 (the size of cross-stretched ideals);
some rows are integer combinations of others, so most matrices are rank
deficient.
"""

from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from newton_segre.linalg import det, dot, kernel_basis, rank, rref


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
    assert det(rows) == oracle_det(rows)


@given(deficient_matrices())
def test_kernel_basis_is_integral_and_annihilates(rows):
    basis = kernel_basis(rows)
    assert len(basis) == len(rows[0]) - rank(rows)
    for v in basis:
        assert all(type(x) is int for x in v)
        assert all(dot(row, v) == 0 for row in rows)
    if basis:
        assert rank(basis) == len(basis)


_RATIONALS = st.builds(F, st.integers(-50, 50), st.integers(1, 12))


@given(st.lists(st.lists(_RATIONALS, min_size=4, max_size=4), min_size=1, max_size=4))
def test_rational_rows_match_the_fraction_oracle(rows):
    assert rref(rows) == oracle_rref(rows)
    square = [row[:len(rows)] for row in rows]
    assert det(square) == oracle_det(square)

"""Small exact linear algebra on integer rows, by fraction-free elimination.

rref, rank, kernel_basis and det are views of one fraction-free Gauss-Jordan
(Bareiss) elimination. Rows of int or Fraction are first scaled row by row
to integers (which changes neither the row space nor the pivots); after the
elimination every pivot equals the same integer D, every division is exact
and the reduced row echelon form is the integer matrix divided by D.
kernel_basis therefore returns integer vectors, and dot keeps its input
types, so integer vectors give an int. Matrices are desk-scale (a few
rows/columns wide).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

Row = list[Fraction | int]
Matrix = list[Row]


def _integer_rows(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[int]], int]:
    """Rows scaled to integers, and the product of the row scales."""
    out: list[list[int]] = []
    scale = 1
    for row in rows:
        row = list(row)
        if not {int}.issuperset(map(type, row)):
            den = lcm(*(x.denominator for x in row))
            row = [x.numerator * (den // x.denominator) for x in row]
            scale *= den
        out.append(row)
    return out, scale


def _eliminate(m: list[list[int]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Returns (m, pivots, D, sign). Row r < len(pivots) has D in pivot column
    pivots[r] and 0 in the other pivot columns; the rows below are zero; D is
    1 when there is no pivot. sign is the parity of the row swaps, so a
    square matrix of full rank has determinant sign * D.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = sign = 1
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            f = row[c]
            if i == r or (not f and p == prev):  # the row would not change
                continue
            m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, prev, sign


def rref(rows: Sequence[Sequence[Fraction | int]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    Integral entries come back as int, the others as Fraction.
    """
    m, pivots, d, _sign = _eliminate(_integer_rows(rows)[0])
    return [[x // d if x % d == 0 else Fraction(x, d) for x in row]
            for row in m], pivots


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    return len(_eliminate(_integer_rows(rows)[0])[1])


def kernel_basis(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """Integer basis of the right null space of the given matrix.

    The vector for free column f has D at f, -M[r][f] at pivot column r and
    0 at the other free columns, where M is the eliminated integer matrix.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots, d, _sign = _eliminate(_integer_rows(rows)[0])
    basis: list[list[int]] = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = d
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def det(rows: Sequence[Sequence[Fraction | int]]) -> Fraction | int:
    """Exact determinant: an int when every entry is integral, else a Fraction."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    m, scale = _integer_rows(rows)
    _m, pivots, d, sign = _eliminate(m)
    if len(pivots) < n:
        return 0
    return sign * d if scale == 1 else Fraction(sign * d, scale)


def dot(u: Sequence[Fraction | int], v: Sequence[Fraction | int]) -> Fraction | int:
    return sum(map(mul, u, v))

"""Small exact linear algebra on integer rows, by fraction-free elimination.

rref, rank, kernel_basis and det take rows of ints only: every matrix the
package eliminates is integral (generators, piece edges, L-scaled points).
They are views of one fraction-free Gauss-Jordan (Bareiss) elimination,
whose row update _pivot is the package's one pivot step (the simplex
tableau uses it too). After the elimination every pivot equals the same
integer D, every division is exact and the reduced row echelon form is the
integer matrix divided by D. kernel_basis therefore returns integer vectors,
det an int, and dot keeps its input types, so integer vectors give an int.
The elimination replaces rows and never mutates one, so only the outer list
is copied. Matrices are desk-scale.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import InvalidInput


def _pivot(m: list[Sequence[int]], r: int, c: int, prev: int) -> int:
    """One fraction-free Gauss-Jordan step on m[r][c], in place.

    Every row but r becomes (p * row - row[c] * m[r]) / prev for p = m[r][c];
    returns p, the new common pivot. Started at prev = 1 on an integer matrix,
    every entry stays a minor of it, so each division is exact."""
    top = m[r]
    p = top[c]
    for i, row in enumerate(m):
        f = row[c]
        if i != r and (f or p != prev):  # otherwise the row would not change
            m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
    return p


def _eliminate(m: list[Sequence[int]]) -> tuple[list[Sequence[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Returns (m, pivots, D, sign). Row r < len(pivots) has D in pivot column
    pivots[r] and 0 in the other pivot columns; the rows below are zero; D is
    1 when there is no pivot. sign is the parity of the row swaps, so a
    square matrix of full rank has determinant sign * D."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    r, prev, sign = 0, 1, 1
    for c in range(ncols):
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        prev = _pivot(m, r, c, prev)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, prev, sign


def rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[Fraction | int]], list[int]]:
    """Reduced row echelon form and its pivot column indices; integral
    entries come back as int, the others as Fraction."""
    m, pivots, d, _sign = _eliminate(list(rows))
    return [[x // d if x % d == 0 else Fraction(x, d) for x in row]
            for row in m], pivots


def rank(rows: Sequence[Sequence[int]]) -> int:
    return len(_eliminate(list(rows))[1])


def kernel_basis(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer basis of the right null space of the given matrix.

    The vector for free column f has D at f, -M[r][f] at pivot column r and
    0 at the other free columns, where M is the eliminated integer matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots, d, _sign = _eliminate(list(rows))
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


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InvalidInput("determinant needs a square matrix")
    _m, pivots, d, sign = _eliminate(list(rows))
    return sign * d if len(pivots) == n else 0


def dot(u: Sequence[Fraction | int], v: Sequence[Fraction | int]) -> Fraction | int:
    return sum(map(mul, u, v))

"""Numerical gate for the closed-form piece integral.

The per-piece formula jacobian * prod(X_i, i not a ray) / prod(1 + v_k . X)
is the package's own derivation, so before anything downstream is trusted it
is checked against tensorized Gauss-Legendre quadrature of the raw kernel

    n! X_1..X_n / (1 + a . X)^(n+1)

over the parametrized piece. Simplex directions go through a stick-breaking
map from the unit cube; rays are tail-transformed with t / (1 - t). The
integrand is analytic after both maps, so the quadrature converges
geometrically and 1e-8 relative is comfortable at 48 nodes per axis.
"""

import math
import random
import zlib
from fractions import Fraction as F
import numpy as np
import pytest

from newton_segre import make_piece
from newton_segre.segre import piece_value
from tests.conftest import gauss_legendre_01

NODES = 48


def quadrature_piece_integral(piece, X: list[float]) -> float:
    """Gauss-Legendre integral of the kernel over the parametrized piece.

    Simplex coordinates come from stick-breaking maps. The ray block uses
    radial-simplex coordinates mu_k = rho * beta_k / X_k with one
    tail-transformed radius: the product map t_k/(1-t_k) per ray is not
    smooth where several rays reach infinity together, while the radial form
    stays analytic. Dividing by X_k makes sum_k mu_k X_k = rho exactly, so
    the kernel's decay along every ray direction is the same in rho however
    unequal the X_k are.
    """
    n = piece.n
    p = len(piece.finite_vertices) - 1
    rays = sorted(piece.ray_axes)
    q = len(rays)
    dims = p + q
    assert dims == n
    nodes, weights = gauss_legendre_01(NODES)

    v0 = np.array([float(c) for c in piece.finite_vertices[0]])
    edges = [np.array([float(c) for c in v]) - v0
             for v in piece.finite_vertices[1:]]
    xs = np.array(X)

    grids = np.meshgrid(*([nodes] * dims), indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([weights] * dims), indexing="ij")
    weight = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)

    # stick-breaking over the vertex simplex: lambda_i = u_i * prod_{j<i}(1-u_j)
    points = np.tile(v0, (len(u), 1))
    remaining = np.ones(len(u))
    for i in range(p):
        lam = u[:, i] * remaining
        weight = weight * remaining
        remaining = remaining * (1.0 - u[:, i])
        points += lam[:, None] * edges[i][None, :]

    if q:
        # barycentric split of the ray block, then one radial tail map
        betas = np.empty((len(u), q))
        remaining = np.ones(len(u))
        for j in range(q - 1):
            betas[:, j] = u[:, p + j] * remaining
            weight = weight * remaining
            remaining = remaining * (1.0 - u[:, p + j])
        betas[:, q - 1] = remaining
        t = u[:, dims - 1]
        rho = t / (1.0 - t)
        weight = weight * rho ** (q - 1) / ((1.0 - t) ** 2 * np.prod(xs[rays]))
        for j, axis in enumerate(rays):
            points[:, axis] += rho * betas[:, j] / xs[axis]

    kernel = math.factorial(n) * float(np.prod(xs)) \
        / (1.0 + points @ xs) ** (n + 1)
    return float(piece.jacobian) * float(np.sum(weight * kernel))


ORIGIN = {1: [(0,)], 2: [(0, 0)], 3: [(0, 0, 0)]}

SHAPES = {
    "segment": ([(0,), (3,)], []),
    "bounded-triangle": ([(0, 0), (3, 0), (1, 1)], []),
    "bounded-tetrahedron": ([(0, 0, 0), (2, 0, 0), (1, 1, 0), (0, 1, 2)], []),
    "one-ray-2d": ([(0, 0), (1, 1)], [1]),
    "one-ray-3d": ([(0, 0, 0), (2, 0, 0), (1, 2, 1)], [2]),
    "two-ray-3d": ([(0, 0, 0), (1, 1, 1)], [1, 2]),
}


# one small X among the rays: a radial scale shared by rays with unequal X
# (their mean) missed the gate at these draws
PINNED = {"two-ray-3d": [[1.5369801096468103, 1.9724686867711074, 0.05204480836679562],
                         [1.9179322913700367, 1.9934762513512565, 0.05912019465603949]]}


def draws(name: str) -> list[list[float]]:
    """Five parameter points for a shape, the same in every process, and
    its pinned ones."""
    rng = random.Random(zlib.crc32(name.encode()))
    n = len(SHAPES[name][0][0])
    return [[rng.uniform(0.05, 2.0) for _ in range(n)] for _ in range(5)] + PINNED.get(name, [])


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_closed_form_matches_quadrature(name):
    vertices, rays = SHAPES[name]
    piece = make_piece([tuple(F(c) for c in v) for v in vertices], rays)
    for X in draws(name):
        closed = float(piece_value(piece, X))
        quad = quadrature_piece_integral(piece, X)
        assert abs(closed - quad) <= 1e-8 * abs(quad), \
            f"{name} at X={X}: closed {closed} vs quadrature {quad}"


def test_orthant_integral_is_one():
    """The kernel integrates to exactly 1 over the whole positive orthant."""
    for n in (1, 2, 3):
        piece = make_piece([tuple(F(0) for _ in range(n))], list(range(n)))
        for X in ([0.7] * n, [0.2, 1.4, 2.2][:n]):
            quad = quadrature_piece_integral(piece, list(X))
            assert abs(quad - 1.0) < 1e-9
            assert piece_value(piece, [F(1, 3)] * n) == 1

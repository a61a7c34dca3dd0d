"""Finite lattice-sum estimator for the Segre-class value at positive X.

The estimator at refinement m sums the kernel

    m * n! * X_1...X_n / (m + a_1 X_1 + ... + a_n X_n)^(n+1)

over lattice points a >= 1 with a/m inside the Newton region. Summing over
the region rather than over its complement keeps the index set finite
whenever the region is bounded; the full-orthant sum tends to 1, so the two
formulations agree in the m -> infinity limit and the finite-m difference is
folded into the reported bias. Points on the diagram boundary are included
(the region is a closure). Along axes where the region is unbounded the sum
is truncated at a cutoff (default 10*m^2, far below the leading bias); a
bounded axis runs to its bound. A tail_tolerance makes every mode first
bound the part beyond the cutoff and raise CutoffTooSmall above it.

The float64 path never enumerates points. Each axis i has a box limit L_i
(its bound, or the cutoff) and a core threshold r_i, the largest a_i any
facet that sees axis i admits; beyond r_i only facets blind to axis i can
hold. Subsets S of axes split the box into cells, a_i in (r_i, L_i] for i in
S and a_j in [1, r_j] otherwise, and inside a cell membership is decided by
the facets that vanish on every axis of S (a cell with none is empty). The
region is down-closed, so along one inner axis k of a cell the members of
each column form an interval [lo, T], with T from the facet inequalities in
integer arithmetic. The column's kernel sum telescopes into a Hurwitz zeta
difference (DLMF 25.11),

    sum_{a=lo}^{T} (a + y)^-(n+1) = (-1)^(n+1) (psi_n(lo + y) - psi_n(T + 1 + y)) / n!

with y = (m + sum_{j != k} a_j X_j) / X_k, evaluated by the vectorized
polygamma kernel. The inner axis is the longest one of the cell (one of S
when S is not empty), so the cost is the number of columns: O(m^(n-1)) for
a bounded region, and a factor of the cutoff more for every tail axis
beyond the first in a cell. Axes with r_i = 0 are in every S and bounded
ones (r_i = L_i) in none, so only the rest are walked; more than MAX_COLUMNS
cells, or columns counted past it, raise EstimateTooLarge with the count
before anything is allocated; the count is of the whole cell, before the
cuts below. A cell's columns are then walked along the longest axis s of
its outer grid (axis k pinned), cut to the region at a_k = lo: axis s ends
at the last a_s whose corner (every other axis at its start) is a member,
so the walk stops at the first empty row, and each block of rows spans on
every other axis only the extent its first row's corner reaches. These
scalar cuts take the facet top of one column in Python ints (_facet_top,
which the exact walk and the lct scan share); whole blocks of columns take
it in numpy (_column_tops). The region is down-closed, so no member falls
outside these cuts. A block holds the rows that fit in about 2^13
columns (the polygamma module's private block size), or one row where a
row is wider, and both ends of its nonempty columns go to one polygamma
call. Under the MAX_COLUMNS cap a row holds at most 2^11 columns in 3-D
and about 26,000 in 4-D, so memory is bounded whatever m and the cutoff are, and MAX_COLUMNS
bounds the time instead (2^22 columns take about 0.15 s on a 2-vCPU Xeon
when every one is a member, as in a 2-D box). The result is the same
truncated sum that exact mode adds up, up to float rounding.

Exact mode walks the box in Python ints, column by column along its
longest axis k (_columns), and bins each column's members a_k = 1..T, T its
facet top, as one range: their denominators L*m + a.(L*X), L the common
denominator of X, step by L*X_k (_column_sum). Their terms count/k^(n+1)
are added as unreduced int pairs in a balanced tree (segre._pair_sum), a
few products of the result's size rather than time quadratic in the number
of denominators. It refuses up front (EstimateTooLarge) above MAX_COLUMNS
box points (2^22 take about 0.25 s in 2-D on a 2-vCPU Xeon), or where its
denominators, or the int facets' c*m + w.a over the box, would leave int64,
as the float path does; the tests check the walk point by point (_member_mask).

Two membership backends exist: "membership_based" evaluates the facet
inequalities; "lct_based" compares m with prod(a) * lct(cross-stretched
ideal) = 1/tau(a), tau(a) = min{t : t*a in P} (Howald 2001). tau falls as a
grows, so each column along axis 0 meets the lct side in some [1, T]. One
scan finds each T by the threshold-side test alone, probed first at the
facet top t (in Python ints) and t + 1 and bisected only where t is not T,
so the lct side stays an independent oracle. lct_based mode sums the kernel
exactly over these columns with exact mode's _column_sum (in float64 mode
the exact pair is divided once, never reduced), and raises
InternalInconsistency where the sets differ at a point with every
a_i > 1 (they may differ where some a_i = 1); mode_agreement_report counts
both kinds. Neither needs int64. Both share one budget, MAX_LCT_POINTS:
lct_based mode refuses a box with more points, and the report a scan with
more columns, before any threshold is computed.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

# numpy is imported inside the float path, its only user, so exact geometry
# and the exact and lct estimates never load it (about 14 MiB, tens of ms).

from .decompose import cone_decomposition
from .errors import CutoffTooSmall, EstimateTooLarge, InternalInconsistency, InvalidInput
from .ideals import MonomialIdeal, _integers, _rationals
from .lct import region_condition_via_lct
from .polygamma import _INT64_MAX, MAX_COLUMNS, _blocks, polygamma
from .polyhedron import Facet, NewtonPolyhedron, newton_polyhedron
from .segre import _common_denominator, _exact_point, _pair_sum, _rational, evaluate

MEMBERSHIP = "membership_based"
LCT_BASED = "lct_based"
EXACT = "exact_rational"
FLOAT64 = "float64"

# Largest box (in points) lct_based mode scans, and most columns the report
# scans; the scan makes about 1.6 threshold tests per column (~0.3 ms each).
MAX_LCT_POINTS = 200_000


@dataclass
class EstimatorConfig:
    """Settings of one estimate; X and tail_tolerance are stored as read, as Fractions."""

    m: int
    X: tuple
    condition_mode: str = MEMBERSHIP
    ray_cutoff: int | None = None
    arithmetic: str = FLOAT64
    tail_tolerance: float | None = None

    def __post_init__(self):
        (self.m,) = _integers((self.m,), "m")
        if self.m < 1:
            raise InvalidInput(f"m must be a positive integer, got {self.m}")
        xs, inexact = _exact_point(self.X)
        if inexact and self.arithmetic == EXACT:
            raise InvalidInput("exact_rational arithmetic needs rational X")
        self.X = tuple(xs)
        if self.condition_mode not in (MEMBERSHIP, LCT_BASED):
            raise InvalidInput(f"unknown condition mode {self.condition_mode!r}")
        if self.arithmetic not in (EXACT, FLOAT64):
            raise InvalidInput(f"unknown arithmetic {self.arithmetic!r}")
        if self.ray_cutoff is None:
            self.ray_cutoff = 10 * self.m * self.m
        (self.ray_cutoff,) = _integers((self.ray_cutoff,), "ray_cutoff")
        if self.ray_cutoff < self.m:
            raise InvalidInput(
                f"ray_cutoff {self.ray_cutoff} must be at least m = {self.m}")
        if self.tail_tolerance is not None:
            (self.tail_tolerance,), _ = _rationals((self.tail_tolerance,), "tail_tolerance")
            if self.tail_tolerance <= 0:
                raise InvalidInput(
                    f"tail_tolerance must be positive, got {float(self.tail_tolerance)}")


@dataclass(frozen=True)
class ConvergenceRow:
    m: int
    estimate: float | Fraction  # what estimate() returned
    exact_value: float
    abs_error: float
    elapsed_time: float


@dataclass(frozen=True)
class ModeAgreement:
    m: int
    points_covered: int
    lct_evaluations: int
    interior_mismatches: int
    edge_mismatches: int


def kernel_term(a: Sequence[int], m: int, X: Sequence):
    """One summand of the estimator, exact; a float when some X_i is a float."""
    *a, m = _integers((*a, m), "a and m")
    xs, inexact = _exact_point(X)
    n = len(a)
    if len(xs) != n:
        raise InvalidInput("a and X must have the same length")
    if m < 1 or any(ai < 1 for ai in a):
        raise InvalidInput("kernel is defined for m >= 1 and a_i >= 1")
    num = m * math.factorial(n) * math.prod(xs)
    value = num / (m + sum(ai * x for ai, x in zip(a, xs))) ** (n + 1)
    return float(value) if inexact else value


# ---------------------------------------------------------------------------
# facet geometry helpers (integer form)
# ---------------------------------------------------------------------------

def _axis_limits(poly: NewtonPolyhedron, m: int,
                 cutoff: int) -> tuple[list[int], list[int]]:
    """Per axis i, the core threshold and the box limit of the region.

    core_i is the largest a_i that a diagram facet seeing axis i (w_i > 0)
    admits, max c*m // w_i. Where every diagram facet sees axis i, the
    region is bounded along it and limit_i is core_i, whatever the cutoff;
    elsewhere limit_i is the cutoff and core_i is capped at it. Plain ints:
    no int64 limit applies.
    """
    core, limits = [], []
    for i in range(poly.n):
        reach = max((f.offset * m // f.normal[i] for f in poly.diagram_facets
                     if f.normal[i] > 0), default=0)
        limits.append(reach if all(f.normal[i] for f in poly.diagram_facets) else cutoff)
        core.append(min(reach, limits[i]))
    return core, limits


def _int_facets(poly: NewtonPolyhedron, m: int, limits: Sequence[int]) -> tuple[Facet, ...]:
    """The diagram facets (member iff some w.a <= c*m), once every w.a and c*m
    over the box 1 <= a <= limits, at most c*m + sum_j w_j*limit_j, and every
    box coordinate up to max(limits) + 1 are known to fit in int64;
    EstimateTooLarge otherwise."""
    facets = poly.diagram_facets
    largest = max(max(limits) + 1, *(
        f.offset * m + sum(w * limit for w, limit in zip(f.normal, limits)) for f in facets))
    if largest > _INT64_MAX:
        raise EstimateTooLarge(
            f"lattice arithmetic reaches {largest}, beyond the int64 limit "
            f"{_INT64_MAX}; lower m or ray_cutoff")
    return facets


def _member_mask(facets: Sequence[Facet], m: int,
                 grids: Sequence[np.ndarray]) -> np.ndarray:
    """Boolean mask of region membership on a meshgrid; the tests' oracle."""
    mask = None
    for f in facets:
        this = sum(w * g for w, g in zip(f.normal, grids) if w) <= f.offset * m
        mask = this if mask is None else (mask | this)
    return mask


def _facet_top(facets: Sequence[Facet], m: int, k: int,
               outer: Sequence[int], lo: int, hi: int) -> int:
    """_column_tops for one column whose outer coordinates are Python ints,
    in Python ints: no numpy scalar and no int64 limit."""
    top = lo - 1
    for f in facets:
        slack = f.offset * m - sum(w * a for j, (w, a) in enumerate(zip(f.normal, outer))
                                   if j != k and w)
        w = f.normal[k]
        top = max(top, slack // w if w else hi if slack >= 0 else lo - 1)
    return min(top, hi)


def _column_tops(facets: Sequence[Facet], m: int, k: int,
                 outer: Sequence, lo: int, hi: int) -> np.ndarray:
    """Per column along axis k: the largest member a_k in [lo, hi], else lo - 1.

    outer[j] (j != k) holds the column's a_j as integers or integer arrays
    that broadcast together; outer[k] is ignored. The region is down-closed,
    so a column's members in [lo, hi] are exactly [lo, top].
    """
    import numpy as np
    top = None
    for f in facets:
        slack = f.offset * m - sum(w * a for j, (w, a) in enumerate(zip(f.normal, outer))
                                   if j != k and w)
        if f.normal[k]:
            t = np.floor_divide(slack, f.normal[k])
        else:
            t = np.where(slack >= 0, hi, lo - 1)
        top = t if top is None else np.maximum(top, t)
    return np.clip(top, lo - 1, hi)


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------

def estimate(ideal: MonomialIdeal, cfg: EstimatorConfig):
    """Finite-m estimator of the Segre-class value at cfg.X.

    Exact rational output in exact_rational mode (the truncated sum itself),
    float in float64 mode.
    """
    _check_length(ideal, cfg.X)
    poly = newton_polyhedron(ideal)
    core, limits = _axis_limits(poly, cfg.m, cfg.ray_cutoff)
    if cfg.tail_tolerance is not None:
        _check_tail(poly, cfg, limits)
    if cfg.condition_mode == LCT_BASED:
        return _estimate_lct(ideal, poly, cfg, limits)
    if cfg.arithmetic == EXACT:
        return _estimate_exact(poly, cfg, limits)
    return _estimate_float(poly, cfg, core, limits)


def _check_length(ideal: MonomialIdeal, X: Sequence) -> None:
    if len(X) != ideal.n:
        raise InvalidInput(
            f"X has {len(X)} entries for an ideal in {ideal.n} variables")


def _float_params(X: Sequence, n: int) -> list[float]:
    """X in float64, refused unless every X_i^(n+1), the scale of the kernel
    sums, is a nonzero float64."""
    try:
        xs = [float(x) for x in X]
        fits = all(x ** (n + 1) > 0 for x in xs)  # float ** raises on overflow
    except OverflowError:
        fits = False
    if not fits:
        raise InvalidInput(f"float64 arithmetic needs every X_i^{n + 1} to be a nonzero "
                           "float64; use exact arithmetic")
    return xs


def _check_tail(poly: NewtonPolyhedron, cfg: EstimatorConfig, limits: list[int]) -> None:
    """Crude rigorous bound for the part beyond the cutoff on unbounded axes,
    exact, so it holds for any X the estimating mode accepts."""
    m, n, xs = cfg.m, poly.n, cfg.X
    total = Fraction(0)
    for axis in range(n):
        if all(f.normal[axis] for f in poly.diagram_facets):
            continue
        cross = math.prod(limits[i] for i in range(n) if i != axis)
        shift = sum(xs[i] for i in range(n) if i != axis)
        bound = (cross * m * math.factorial(n) * math.prod(xs)
                 / (n * xs[axis] * (m + cfg.ray_cutoff * xs[axis] + shift) ** n))
        total += bound
    if total > cfg.tail_tolerance:
        raise CutoffTooSmall(
            f"estimated tail {float(total):.3e} beyond cutoff {cfg.ray_cutoff} exceeds "
            f"tolerance {float(cfg.tail_tolerance):.3e}")


def _estimate_float(poly: NewtonPolyhedron, cfg: EstimatorConfig,
                    core: list[int], limits: list[int]) -> float:
    """The truncated sum as closed-form column sums over the cells (float64)."""
    import numpy as np
    m, n = cfg.m, poly.n
    xs = _float_params(cfg.X, n)
    facets = _int_facets(poly, m, limits)

    free = [i for i in range(n) if 0 < core[i] < limits[i]]  # the rest are fixed
    if 2 ** len(free) > MAX_COLUMNS:
        raise EstimateTooLarge(f"float estimate would walk {2 ** len(free)} cells, above "
                               f"the limit of {MAX_COLUMNS}")
    cells, columns = [], 0
    for chosen in itertools.product((False, True), repeat=len(free)):
        picked = dict(zip(free, chosen))
        tail = [picked.get(i, core[i] == 0) for i in range(n)]
        ranges = [(core[i] + 1, limits[i]) if tail[i] else (1, core[i])
                  for i in range(n)]
        blind = [f for f in facets if not any(f.normal[i] for i in range(n) if tail[i])]
        if any(lo > hi for lo, hi in ranges) or not blind:
            continue
        k = max((i for i in range(n) if tail[i] or not any(tail)),
                key=lambda i: ranges[i][1] - ranges[i][0])
        cells.append((blind, ranges, k))
        columns += math.prod(hi - lo + 1 for j, (lo, hi) in enumerate(ranges) if j != k)
        if columns > MAX_COLUMNS:
            raise EstimateTooLarge(
                f"float estimate needs at least {columns} lattice columns, above the "
                f"limit of {MAX_COLUMNS}; lower m or ray_cutoff")

    parts = []
    sign = (-1) ** (n + 1)  # in every part, so an empty sum is +0.0
    for blind, ranges, k in cells:
        lo, hi = ranges[k]
        # the outer grid (axis k pinned to 0) as sparse axes, walked along its
        # longest axis s and cut to the region at a_k = lo (module docstring)
        grid = [(0, 0) if j == k else r for j, r in enumerate(ranges)]
        lengths = [stop - start + 1 for start, stop in grid]
        s = lengths.index(max(lengths))
        corner = [lo if j == k else start for j, (start, _) in enumerate(grid)]
        end = _facet_top(blind, m, s, corner, *grid[s])
        first = grid[s][0]
        while first <= end:
            corner[s] = first
            cut = [(start, stop) if j in (k, s) else
                   (start, _facet_top(blind, m, j, corner, start, stop))
                   for j, (start, stop) in enumerate(grid)]
            width = math.prod(stop - start + 1 for j, (start, stop) in enumerate(cut) if j != s)
            last = next(_blocks(first, end + 1, width))[1]  # rows of about _CHUNK columns
            outer = np.meshgrid(*(np.arange(first, last, dtype=np.int64) if j == s else
                                  np.arange(start, stop + 1, dtype=np.int64)
                                  for j, (start, stop) in enumerate(cut)),
                                indexing="ij", sparse=True)
            y = (m + sum(a * x for a, x in zip(outer, xs))) / xs[k]
            tops = np.broadcast_to(_column_tops(blind, m, k, outer, lo, hi), y.shape)
            keep = tops >= lo
            y = y[keep]
            # the two ends of every column in one kernel call
            ends = polygamma(n, np.concatenate((lo + y, tops[keep] + 1 + y)))
            diff = ends[:y.size] - ends[y.size:]
            parts.append(sign * float(np.sum(diff)) / xs[k] ** (n + 1))
            first = last
    return m * math.prod(xs) * math.fsum(parts)


def _estimate_exact(poly: NewtonPolyhedron, cfg: EstimatorConfig,
                    limits: list[int]) -> Fraction:
    """Exact rational value of the truncated sum, walked along the longest axis."""
    m, xs = cfg.m, cfg.X
    L, lx = _common_denominator(xs)
    if any(limit < 1 for limit in limits):
        return Fraction(0)
    points = math.prod(limits)
    if points > MAX_COLUMNS:
        raise EstimateTooLarge(
            f"exact estimate enumerates {points} lattice points, above the limit "
            f"of {MAX_COLUMNS}; lower m or ray_cutoff")
    largest = L * m + sum(x * limit for x, limit in zip(lx, limits))
    if largest > _INT64_MAX:
        raise EstimateTooLarge(
            f"exact estimate needs denominator values up to {largest}, beyond "
            f"the int64 limit {_INT64_MAX}")
    facets = _int_facets(poly, m, limits)
    k = limits.index(max(limits))
    return Fraction(*_column_sum(_columns(facets, m, limits, k), k, m, xs))


def _columns(facets: Sequence[Facet], m: int, limits: Sequence[int],
             k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each column of the box 1 <= a <= limits along axis k, as its point
    with a_k = 0 and its facet top, the largest member a_k in [0, limits[k]]."""
    for outer in itertools.product(*((0,) if j == k else range(1, limit + 1)
                                     for j, limit in enumerate(limits))):
        yield outer, _facet_top(facets, m, k, outer, 1, limits[k])


def _column_sum(columns: Iterable[tuple[Sequence[int], int]], k: int, m: int,
                xs: Sequence[Fraction]) -> tuple[int, int]:
    """The kernel summed exactly over a_k = 1..top of each column (outer, top)
    along axis k, as _kernel_sum's int pair. A column's denominators
    L*m + lx.a step by lx_k, so each column is binned as one range."""
    L, lx = _common_denominator(xs)
    counts = Counter()
    for outer, top in columns:
        base = L * m + sum(x * a for x, a in zip(lx, outer))
        counts.update(range(base + lx[k], base + lx[k] * top + 1, lx[k]))
    return _kernel_sum(counts, m, xs, L)


def _kernel_sum(counts: dict[int, int], m: int, xs: Sequence[Fraction],
                L: int) -> tuple[int, int]:
    """The kernel summed exactly over counts[k] points of denominator
    k = L*(m + a.X), as an unreduced int pair (numerator, denominator)."""
    n = len(xs)
    front = Fraction(m * math.factorial(n) * L ** (n + 1)) * math.prod(xs)
    num, den = _pair_sum((c, k ** (n + 1)) for k, c in counts.items())
    return front.numerator * num, front.denominator * den


def _estimate_lct(ideal: MonomialIdeal, poly: NewtonPolyhedron, cfg: EstimatorConfig,
                  limits: list[int]):
    """The truncated sum over the lct scan's columns, exact; a float in float64 mode."""
    points = math.prod(max(limit, 0) for limit in limits)
    if points > MAX_LCT_POINTS:
        raise EstimateTooLarge(
            f"lct_based mode would scan a box of {points} lattice points, above the "
            f"limit of {MAX_LCT_POINTS}; lower m or ray_cutoff, or use membership_based mode")
    tops, report = _lct_scan(ideal, poly, cfg.m, limits)
    if report.interior_mismatches:
        raise InternalInconsistency(
            f"membership and lct index sets differ at {report.interior_mismatches} "
            f"interior lattice points at m = {cfg.m}")
    return _rational(*_column_sum(tops, 0, cfg.m, cfg.X), cfg.arithmetic != EXACT)


def _increasing(m_list: Sequence[int]) -> list[int]:
    """m_list read by ideals._integers; InvalidInput unless it increases strictly."""
    m_list = _integers(m_list, "m_list entries")
    if any(a >= b for a, b in zip(m_list, m_list[1:])):
        raise InvalidInput("m_list must be strictly increasing")
    return m_list


def convergence_report(ideal: MonomialIdeal, X: Sequence, m_list: Sequence[int],
                       condition_mode: str = MEMBERSHIP,
                       arithmetic: str = FLOAT64,
                       ray_cutoff: int | None = None) -> list[ConvergenceRow]:
    """Estimates along strictly increasing m, the exact value and the absolute
    errors.

    ray_cutoff applies to every m; None means each m's default 10*m^2. Every
    estimate runs before the cone decomposition and the exact value, so a
    refused one costs no more than the polyhedron its refusal reads.
    """
    m_list = _increasing(m_list)
    _check_length(ideal, _exact_point(X)[0])
    poly = newton_polyhedron(ideal)  # built here, so no row's time includes it
    timed = []
    for m in m_list:
        cfg = EstimatorConfig(m=m, X=tuple(X), condition_mode=condition_mode,
                              ray_cutoff=ray_cutoff, arithmetic=arithmetic)
        start = time.perf_counter()
        value = estimate(ideal, cfg)
        timed.append((m, value, time.perf_counter() - start))
    exact_value = float(evaluate(cone_decomposition(poly), X))
    return [ConvergenceRow(m=m, estimate=value, exact_value=exact_value,
                           abs_error=abs(float(value) - exact_value), elapsed_time=elapsed)
            for m, value, elapsed in timed]


# ---------------------------------------------------------------------------
# membership-mode vs lct-mode agreement
# ---------------------------------------------------------------------------

def _lct_scan(ideal: MonomialIdeal, poly: NewtonPolyhedron, m: int,
              limits: Sequence[int]) -> tuple[list[tuple[tuple[int, ...], int]], ModeAgreement]:
    """Each column of the box 1 <= a <= limits along axis 0, as its point
    with a_0 = 0 and its lct top, and the agreement counts."""
    tops, evaluations, interior, edge = [], 0, 0, 0
    for outer, t_mem in _columns(poly.diagram_facets, m, limits, 0):
        rest = outer[1:]
        lo, hi = 0, limits[0] + 1  # the lct top T has lo <= T < hi
        probes = iter((t_mem, t_mem + 1))  # the facet top and the next point, then bisection
        while hi - lo > 1:
            a1 = next(probes, (lo + hi) // 2)
            if lo < a1 < hi:
                evaluations += 1
                lo, hi = (a1, hi) if region_condition_via_lct(ideal, (a1,) + rest, m) else (lo, a1)
        tops.append((outer, lo))
        # the modes differ at a1 in (low, high]; a1 = 1 there is an edge point
        low, high = sorted((t_mem, lo))
        on_edge = high - low if 1 in rest else int(low == 0 < high)
        edge += on_edge
        interior += high - low - on_edge

    return tops, ModeAgreement(
        m=m, points_covered=math.prod(limits), lct_evaluations=evaluations,
        interior_mismatches=interior, edge_mismatches=edge)


def mode_agreement_report(ideal: MonomialIdeal, m: int) -> ModeAgreement:
    """Compare the membership and lct index sets over the truncated box.

    The box is the estimator's at ray cutoff 4*m, every axis capped at 4*m.
    Each mismatched point is counted once, as interior (all a_i > 1) or edge
    (some a_i = 1); lct_evaluations counts the threshold-side tests.
    """
    (m,) = _integers((m,), "m")
    if m < 1:
        raise InvalidInput(f"m must be a positive integer, got {m}")
    poly = newton_polyhedron(ideal)
    limits = [min(limit, 4 * m) for limit in _axis_limits(poly, m, 4 * m)[1]]
    scanned = math.prod(limits[1:])
    if scanned > MAX_LCT_POINTS:
        raise EstimateTooLarge(
            f"mode agreement would scan {scanned} lattice columns, above the limit "
            f"of {MAX_LCT_POINTS}; lower m")
    return _lct_scan(ideal, poly, m, limits)[1]

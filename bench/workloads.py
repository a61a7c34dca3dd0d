"""Seeded job streams for the three benchmark workloads.

A job is one CLI invocation (an argv list for ``newton_segre.cli.main``)
plus the data its correctness check needs. Every stream is built in rounds
of a fixed composition, so the mix of job kinds, and with it the cost mix,
is the same for every seed; the seed picks the ideals, parameters and
refinements inside each round. Generation is pure Python and never calls the
package, so it costs the same on every commit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Jobs per workload whose exact outputs go into the run digest. A run always
# completes at least this many jobs, so two runs of one seed hash the same
# outputs however fast the program is.
DIGEST_JOBS = {"exact-geometry": 15, "lattice-sums": 26, "threshold-queries": 300}

# Rounds generated per run; the stream cycles through them if a run gets
# that far (every job starts from cleared caches, so a repeat costs the same).
POOL_ROUNDS = {"exact-geometry": 8, "lattice-sums": 24, "threshold-queries": 200}

# ROADMAP defects as (generators, m, X), kept verbatim: a 3-D float
# estimate that asks numpy for 9.66 GiB, and an exact estimate whose common
# denominator overflows int64.
MEMORY_DEFECT = (((2, 1, 0), (0, 3, 1), (1, 0, 2)), 60,
                 (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
OVERFLOW_DEFECT = (((1, 0), (0, 1)), 100,
                   (Fraction(1, 303700049), Fraction(1, 303700051)))

# Criterion-8 ideals of the acceptance suite: diagonal (2,3) and staircase.
CRITERION_8_IDEALS = (((2, 0), (0, 3)), ((2, 0), (1, 1)))


@dataclass
class Job:
    kind: str
    argv: list[str]
    info: dict = field(default_factory=dict)


def ideal_text(gens) -> str:
    parts = []
    for g in gens:
        parts.append("*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                              for i, e in enumerate(g) if e))
    return ",".join(parts)


def _minimal(gens):
    gens = sorted(set(tuple(g) for g in gens))
    return [g for g in gens
            if not any(h != g and all(x >= y for x, y in zip(g, h)) for h in gens)]


def _frac_list(values) -> str:
    return ",".join(str(Fraction(v)) for v in values)


def staircase_ideal(rng: random.Random, n: int, power_choices,
                    unbounded: int | None, mixed: int):
    """Pure powers x_i^p_i (except on the unbounded axis) plus `mixed`
    generators strictly below the pure-power simplex, all minimal. The
    powers are one of `power_choices`, drawn again when they leave no room
    for that many minimal generators.

    A generator below the simplex is never in the hull of the pure powers,
    so it adds facets and pieces; dropping one pure power leaves that axis
    unbounded, which gives pieces with rays.
    """
    bounded = [i for i in range(n) if i != unbounded]
    while True:
        powers = rng.choice(power_choices)
        gens = []
        for i in bounded:
            e = [0] * n
            e[i] = powers[i]
            gens.append(tuple(e))
        for _ in range(200):
            if len(gens) == len(bounded) + mixed:
                break
            v = [rng.randint(0, powers[i] - 1) if i != unbounded
                 else rng.randint(1, 3) for i in range(n)]
            if sum(v[i] * Fraction(1, powers[i]) for i in bounded) >= 1:
                continue
            if unbounded is not None and not any(v[i] for i in bounded):
                continue  # a pure power of the unbounded axis would bound it
            cand = gens + [tuple(v)]
            if len(_minimal(cand)) == len(cand):
                gens = cand
        if len(gens) == len(bounded) + mixed:
            return gens


# ---------------------------------------------------------------------------
# exact-geometry
# ---------------------------------------------------------------------------

def disjoint_staircase(rng: random.Random, n: int, supports: tuple[int, ...],
                       unbounded: bool):
    """Pure powers x_i^p_i, p_i in [2, 5], plus one mixed generator per entry
    of `supports`, on disjoint sets of that many variables, each strictly
    below the pure-power simplex.

    A generator below the simplex on a support disjoint from the others is
    never in the hull of the rest, so all ideals of one (n, supports,
    unbounded) class share a combinatorial type and cost about the same.
    With `unbounded`, the pure power of one variable of the first support is
    dropped, which leaves that axis unbounded and gives pieces with rays.
    """
    while True:
        powers = [rng.randint(2, 5) for _ in range(n)]
        axes = rng.sample(range(n), n)
        gens = []
        start = 0
        for size in supports:
            v = [0] * n
            for i in axes[start:start + size]:
                v[i] = rng.randint(1, powers[i] - 1)
            gens.append(tuple(v))
            start += size
        if any(sum(Fraction(v[i], powers[i]) for i in range(n)) >= 1 for v in gens):
            continue
        dropped = axes[0] if unbounded else None
        gens += [tuple(powers[i] if j == i else 0 for j in range(n))
                 for i in range(n) if i != dropped]
        return gens


def random_mixed_ideal(rng: random.Random, n: int, k: int, max_exp: int):
    """The acceptance suite's random ideal, redrawn until it has exactly k
    minimal generators: many facets and pieces, mostly not m-primary."""
    while True:
        gens = _random_ideal(rng, n, k, max_exp)
        if len(gens) == k:
            return gens


def is_m_primary(gens) -> bool:
    return all(any(g[i] and not any(g[:i] + g[i + 1:]) for g in gens)
               for i in range(len(gens[0])))


# Per round: 6 n=3, 12 n=4 and 6 n=5 ideals, half run as `segre --ambient n`
# and half as `diagram`. n=3 and n=4 ideals are random (five and four
# generators: many facets and pieces, rays from unbounded axes); n=5 ideals
# are staircases (one not m-primary in three) that cost about the same each.
# The median job is then in the middle of the n=4 jobs and the ten slowest
# of a run are n=5 jobs, away from any boundary between cost classes.
GEOMETRY_IDEALS = {3: 3, 4: 6, 5: 3}  # per command and round


def _geometry_ideal(rng: random.Random, n: int, k: int):
    if n == 5:
        return disjoint_staircase(rng, 5, (3,), unbounded=k == 2)
    return random_mixed_ideal(rng, n, 5 if n == 3 else 4, 6 if n == 3 else 4)


def exact_geometry_round(rng: random.Random) -> list[Job]:
    jobs = []
    for n, count in GEOMETRY_IDEALS.items():
        for command in ("segre", "diagram"):
            for k in range(count):
                gens = _geometry_ideal(rng, n, k)
                argv = [command, ideal_text(gens), "--n", str(n)]
                if command == "segre":
                    argv += ["--ambient", str(n)]
                jobs.append(Job(f"{command}-n{n}", argv, {"n": n, "gens": gens}))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# lattice-sums
# ---------------------------------------------------------------------------

_X_CHOICES = [Fraction(p, q) for p, q in
              ((1, 2), (1, 3), (2, 3), (1, 5), (3, 4), (1, 4), (2, 5), (1, 1))]
# (l, X) for the power identity, (l, X1, X2) and (l1, l2, X1, X2) for the two
# two-variable identities; the m values are the criterion-7 sizes.
_POWER_PARAMS = ((2, Fraction(1, 2)), (1, Fraction(1, 2)), (3, Fraction(1, 3)),
                 (2, Fraction(1, 4)))
_TWO_VAR_PARAMS = ((2, Fraction(1, 2), Fraction(1, 2)),
                   (1, Fraction(1, 2), Fraction(1, 2)),
                   (2, Fraction(1, 3), Fraction(1, 2)),
                   (3, Fraction(1, 4), Fraction(1, 2)))
_DIAGONAL_PARAMS = ((2, 3, Fraction(1, 3), Fraction(1, 2)),
                    (1, 2, Fraction(1, 2), Fraction(1, 3)),
                    (3, 2, Fraction(1, 4), Fraction(1, 3)),
                    (2, 2, Fraction(1, 2), Fraction(1, 2)))
# Refinements: one job per level and round, m within 2% of the level, and
# pure powers with a fixed box volume keep the O(m^n) cost mix the same for
# every seed. The levels lie in the ranges m in [250, 3000] (2-D) and
# m in [50, 200] (3-D); an unbounded third axis costs O(m^4), so m stays
# small. The two 3-D jobs at m=120 are the slowest of a round, so the ten
# slowest jobs of a run all come from that one class.
_M_LEVELS_2D = (300, 900, 1600)
_M_RAY_2D = 900  # the 2-D level whose ideal has an unbounded axis
_M_LEVELS_3D = (60, 120, 120)
_M_RAY_3D = 16
_M_LIST_BASE = 150  # --m-list m, 2m, 4m


def _near(rng: random.Random, level: int) -> int:
    return rng.randint(round(level * 0.98), round(level * 1.02))


def _estimate_job(kind, gens, m, X, extra=(), **info) -> Job:
    argv = ["estimate", ideal_text(gens), "--m", str(m), "--X", _frac_list(X)]
    argv += list(extra)
    return Job(kind, argv, {"gens": gens, "m": m, "X": [str(x) for x in X], **info})


def lattice_sums_round(rng: random.Random) -> list[Job]:
    jobs = []
    for level in _M_LEVELS_2D:
        if level == _M_RAY_2D:
            gens = staircase_ideal(rng, 2, ([2, 2],), rng.randrange(2), 1)
        else:
            gens = staircase_ideal(rng, 2, ([2, 3], [3, 2]), None, 1)
        X = [rng.choice(_X_CHOICES) for _ in range(2)]
        jobs.append(_estimate_job("estimate-2d", gens, _near(rng, level), X,
                                  unbounded=level == _M_RAY_2D))
    for level in _M_LEVELS_3D:
        gens = staircase_ideal(rng, 3, ([2, 2, 3], [2, 3, 2], [3, 2, 2]), None, 1)
        X = [rng.choice(_X_CHOICES) for _ in range(3)]
        jobs.append(_estimate_job("estimate-3d", gens, _near(rng, level), X,
                                  unbounded=False))
    axis = rng.randrange(3)
    gens = staircase_ideal(rng, 3, ([2, 2, 2],), axis, 1)
    X = [rng.choice(_X_CHOICES) for _ in range(3)]
    jobs.append(_estimate_job("estimate-3d-ray", gens, _M_RAY_3D, X, unbounded=True))

    # exact arithmetic on a small m-primary 2-D ideal; checked against float
    gens = staircase_ideal(rng, 2, ([2, 3], [3, 2]), None, 1)
    X = [rng.choice(_X_CHOICES) for _ in range(2)]
    jobs.append(_estimate_job("estimate-exact", gens, rng.randint(10, 30), X,
                              ["--arith", "exact"], unbounded=False))
    gens = staircase_ideal(rng, 2, ([2, 3], [3, 2]), None, 1)
    X = [rng.choice(_X_CHOICES) for _ in range(2)]
    m0 = _near(rng, _M_LIST_BASE)
    m_list = [m0, 2 * m0, 4 * m0]
    jobs.append(Job("estimate-mlist",
                    ["estimate", ideal_text(gens), "--m-list",
                     ",".join(map(str, m_list)), "--X", _frac_list(X)],
                    {"gens": gens, "m_list": m_list, "X": [str(x) for x in X],
                     "unbounded": False}))

    # two of each identity: with the cheap jobs below them and the
    # estimates above, the round's median job is one of these six
    for _ in range(2):
        ell, X = rng.choice(_POWER_PARAMS)
        jobs.append(Job("verify-power", ["verify", "--identity", "power", "--params",
                                         f"l={ell},X={X}", "--m-list", "10000"],
                        {"identity": "power"}))
        ell, X1, X2 = rng.choice(_TWO_VAR_PARAMS)
        jobs.append(Job("verify-two-var",
                        ["verify", "--identity", "two-var", "--params",
                         f"l={ell},X1={X1},X2={X2}", "--m-list", "2000"],
                        {"identity": "two-var"}))
        l1, l2, X1, X2 = rng.choice(_DIAGONAL_PARAMS)
        jobs.append(Job("verify-diagonal",
                        ["verify", "--identity", "diagonal", "--params",
                         f"l1={l1},l2={l2},X1={X1},X2={X2}", "--m-list", "1000"],
                        {"identity": "diagonal"}))

    # Known failures, counted in fail_ratio; once fixed, their results are
    # checked like any other estimate.
    jobs.append(_estimate_job("defect-memory", *MEMORY_DEFECT, unbounded=True,
                              expected_failure="memory"))
    jobs.append(_estimate_job("defect-overflow", *OVERFLOW_DEFECT, ["--arith", "exact"],
                              unbounded=False, expected_failure="exception"))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# threshold-queries
# ---------------------------------------------------------------------------

def _random_ideal(rng: random.Random, n: int, k: int, max_exp: int = 6):
    """The acceptance suite's random ideal with k drawn generators."""
    while True:
        gens = [tuple(rng.randint(0, max_exp) for _ in range(n)) for _ in range(k)]
        gens = [g for g in gens if any(g)]
        if gens:
            return _minimal(gens)


def _stretch_query(gens, a, m, kind) -> Job:
    total = math.prod(a)
    factors = [total // ai for ai in a]
    stretched = _minimal([tuple(f * e for f, e in zip(factors, g)) for g in gens])
    return Job(kind, ["lct", ideal_text(stretched), "--n", str(len(a))],
               {"gens": gens, "a": list(a), "m": m, "stretch_product": total})


def threshold_queries_round(rng: random.Random) -> list[Job]:
    """28 queries. Twenty criterion-4 draws: 2-D and 3-D random ideals with
    each generator count 1..5 once (criterion 4 draws it uniformly), each
    ideal at two directions as in --mode lct, a_i in [2, 20], m in [1, 50].
    Eight criterion-8 draws: the 2-D acceptance ideals at m in {250, 500},
    a inside the scanned box."""
    jobs = []
    for n in (2, 3):
        for k in range(1, 6):
            gens = _random_ideal(rng, n, k)
            for _ in range(2):
                a = [rng.randint(2, 20) for _ in range(n)]
                jobs.append(_stretch_query(gens, a, rng.randint(1, 50), f"lct-c4-n{n}"))
    for m in (250, 250, 250, 250, 500, 500, 500, 500):
        gens = [tuple(g) for g in rng.choice(CRITERION_8_IDEALS)]
        a = [rng.randint(2, 2 * m), rng.randint(2, 3 * m)]
        jobs.append(_stretch_query(gens, a, m, "lct-c8"))
    rng.shuffle(jobs)
    return jobs


ROUNDS = {
    "exact-geometry": exact_geometry_round,
    "lattice-sums": lattice_sums_round,
    "threshold-queries": threshold_queries_round,
}


def build_pool(workload: str, seed: int) -> list[list[Job]]:
    """The seeded rounds of jobs; the same (workload, seed) gives the same."""
    rng = random.Random(f"{workload}:{seed}")
    return [ROUNDS[workload](rng) for _ in range(POOL_ROUNDS[workload])]


# Small fixed jobs run once during set-up, touching every subcommand a
# workload uses, so first-call costs land in setup_s and not in a job.
WARMUP = {
    "exact-geometry": [["segre", "x1^2,x1*x2,x2^3", "--ambient", "2"],
                       ["diagram", "x1^2,x2^2,x3^2,x1*x2*x3"]],
    "lattice-sums": [["estimate", "x1^2,x2^3", "--m", "20", "--X", "1/3,1/2"],
                     ["estimate", "x1^2,x1*x2", "--m", "20", "--X", "1/3,1/2"],
                     ["estimate", "x1^2,x2^2,x3^2", "--m", "8", "--X", "1/2,1/3,1/5"],
                     ["verify", "--identity", "power", "--params", "l=2,X=1/2",
                      "--m-list", "100"]],
    "threshold-queries": [["lct", "x1^2,x2^3"], ["lct", "x1^4*x2,x2^6*x3^2,x3^9"]],
}

import os
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import newton_segre
from newton_segre import MonomialIdeal, make_ideal

# Property tests draw the same examples on every run and have no per-example
# deadline, so they cannot make the suite flaky on a slow or loaded machine.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_ideal(rng: random.Random, n: int | None = None,
                 max_gens: int = 5, max_exp: int = 8) -> MonomialIdeal:
    if n is None:
        n = rng.choice([2, 3])
    while True:
        k = rng.randint(1, max_gens)
        gens = [tuple(rng.randint(0, max_exp) for _ in range(n)) for _ in range(k)]
        gens = [g for g in gens if any(g)]
        if gens:
            return make_ideal(n, gens)


def random_rational(rng: random.Random, lo: int = 0, hi: int = 10,
                    max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)


def gauss_legendre_01(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return (x + 1.0) / 2.0, w / 2.0


def subprocess_env() -> dict[str, str]:
    """The environment with the imported package's directory first on
    PYTHONPATH, so a child interpreter imports the same package."""
    env = dict(os.environ)
    src = str(Path(newton_segre.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def traced_peak(fn, *args):
    """fn(*args) and the peak of tracemalloc-traced memory, in bytes, during
    that one call. Warm caches and imports up before calling this."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return result, peak

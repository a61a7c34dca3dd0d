"""The benchmark's per-layer trace wraps package functions by name.

bench/tracing.py resolves those names with getattr when --trace 1 runs, so
deleting or renaming one breaks the trace without failing anything else.
This test reads the name lists (it does not change bench/) and checks that
every one still resolves.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import newton_segre
from newton_segre import make_ideal, simplex
from newton_segre.cones import cone_facets
from newton_segre.lct import diagonal_exit
from newton_segre.polyhedron import contains_lp, newton_polyhedron
from newton_segre.series import TruncatedSeries

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    names = [(short, fn) for short, fns in tracing.SPANS.items() for fn in fns]
    names.append(("lattice", "_member_mask"))  # counted by bench/run.py's HOOKS
    missing = [
        f"{short}.{fn}" for short, fn in names
        if not callable(getattr(
            importlib.import_module(f"{newton_segre.__name__}.{short}"), fn, None))
    ]
    missing += [f"TruncatedSeries.{method}" for method in tracing.SERIES_METHODS
                if method not in TruncatedSeries.__dict__]
    assert missing == []


def test_every_lp_reaches_solve_lp(monkeypatch):
    """bench/run.py reports simplex.lp.calls as the calls of simplex.solve_lp,
    wrapped in every namespace that holds it, so every LP must go through
    that name. Building the polyhedron solves none; each cross-check solves
    one over the ideal's generators, extreme or not."""
    original = simplex.solve_lp
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == newton_segre.__name__:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    newton_polyhedron.cache_clear()
    ideal = make_ideal(2, [(2, 0), (1, 1), (0, 2)])
    poly = newton_polyhedron(ideal)
    assert calls == []
    assert len(poly.extreme_points) == 2  # (1, 1) lies on the diagram facet
    assert contains_lp(poly, (1, 2))
    diagonal_exit(poly)
    assert [args[0] for args in calls] == [ideal.generators] * 2


def test_facet_count_is_the_polyhedron_facets_and_infinity():
    """bench/run.py counts cones.facets.yield from len(cone_facets(...)): one
    entry per facet of P and one for the hyperplane at infinity."""
    for n, gens in ((2, [(2, 0), (1, 1), (0, 3)]), (3, [(2, 0, 1), (0, 3, 0), (1, 1, 1)]),
                    (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)])):
        poly = newton_polyhedron(make_ideal(n, gens))
        homog = [v + (1,) for v in poly.extreme_points]
        homog += [tuple(int(i == axis) for i in range(n + 1)) for axis in range(n)]
        assert len(cone_facets(homog)) == len(poly.facets) + 1

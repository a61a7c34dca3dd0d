"""Per-layer tracing of the package from the outside.

The tracer replaces the public functions of every ``newton_segre`` module
with wrappers that record a span (name, start, end, parent span, job id)
around each call. It patches every namespace that holds the function, so
``cones.cone_facets`` is caught whether it is called as ``cones.cone_facets``
or through ``polyhedron``'s imported name. Self time is a span's duration
minus the durations of its child spans; it is aggregated online, and the raw
spans are kept in memory (up to SPAN_CAP) and written out at the end.

Nothing here changes what the package computes: wrappers pass arguments and
results through untouched, and ``uninstall`` restores every patched name.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 1_000_000

# Public functions per module; each call becomes a span named module.function.
SPANS = {
    "ideals": ("parse_ideal", "make_ideal", "stretch", "serialize_ideal"),
    "linalg": ("rref", "rank", "kernel_basis", "det", "dot"),
    "cones": ("span_basis", "canonical_normal", "cone_facets", "pull_triangulation"),
    "simplex": ("solve_lp", "feasible"),
    "polyhedron": ("newton_polyhedron", "contains", "contains_lp",
                   "in_newton_region", "polyhedron_to_json"),
    "lct": ("diagonal_exit", "lct", "lct_condition", "region_condition_via_lct",
            "cross_stretch_factors"),
    "decompose": ("cone_decomposition", "make_piece", "piece_membership"),
    "segre": ("segre_class", "integrate_piece", "piece_value", "evaluate"),
    "lattice": ("estimate", "convergence_report", "kernel_term",
                "mode_agreement_report"),
    "polygamma": ("bernoulli", "polygamma", "polygamma_extended",
                  "sum_inverse_cubes", "verify_power_identity",
                  "verify_two_variable_identity", "verify_diagonal_identity"),
    "cli": ("main",),
}
SERIES_METHODS = {"__mul__": "series.mul", "__rmul__": "series.mul",
                  "inverse": "series.inverse"}


def package_modules(package) -> list:
    prefix = package.__name__ + "."
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package.__name__ or name.startswith(prefix))]


def lru_caches(package) -> list:
    """Every functools cache object reachable from the package's modules."""
    found = {}
    for mod in package_modules(package):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)):
                found[id(value)] = value
    return list(found.values())


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # raw spans, column-wise
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        # online aggregates
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.pair_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.job_id = -1
        self._stack: list[list] = []  # open spans: [name, child time, index]
        self._patches: list[tuple[object, str, object]] = []
        self.cache_hits: dict[str, int] = defaultdict(int)
        self.cache_misses: dict[str, int] = defaultdict(int)

    # ---- spans ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, count=None):
        nid = self._name_id(name)
        stack = self._stack
        calls, self_s, pairs = self.calls, self.self_s, self.pair_calls
        cols = (self.span_name, self.span_parent, self.span_job,
                self.span_start, self.span_end)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(cols[0])
            if index < SPAN_CAP:
                cols[0].append(nid)
                cols[1].append(parent[2] if parent is not None else -1)
                cols[2].append(self.job_id)
                cols[3].append(0.0)
                cols[4].append(0.0)
            else:
                index = -1
                self.spans_dropped += 1
            frame = [name, 0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                    pairs[(parent[0], name)] += 1
                if index >= 0:
                    cols[3][index] = start
                    cols[4][index] = end
            if count is not None:
                count(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---- patching -------------------------------------------------------

    def install(self, counters: dict, hooks: list) -> None:
        """Wrap every listed function in every namespace that holds it.

        counters maps a span name to count(counters, args, result), called
        after each traced call. hooks lists (module, attribute, count) for
        private helpers that are counted without a span, so their time
        stays in the caller's self time.
        """
        modules = package_modules(self.package)
        pkg = self.package.__name__
        for short, functions in SPANS.items():
            module = sys.modules[f"{pkg}.{short}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                span = f"{short}.{fn_name}"
                wrapper = self.wrap(span, original, counters.get(span))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))
        series_cls = sys.modules[f"{pkg}.series"].TruncatedSeries
        for method, span in SERIES_METHODS.items():
            original = series_cls.__dict__[method]
            setattr(series_cls, method, self.wrap(span, original, counters.get(span)))
            self._patches.append((series_cls, method, original))
        for short, attr, count in hooks:
            module = sys.modules[f"{pkg}.{short}"]
            original = getattr(module, attr)
            setattr(module, attr, _counting(original, count, self.counters))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def record_caches(self, caches: dict) -> None:
        """Add the hit/miss counts of caches that were cleared at job start."""
        for label, cache in caches.items():
            info = cache.cache_info()
            self.cache_hits[label] += info.hits
            self.cache_misses[label] += info.misses

    # ---- output ---------------------------------------------------------

    def write_spans(self, path) -> None:
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names),
                     name=np.frombuffer(self.span_name, dtype=np.int32),
                     parent=np.frombuffer(self.span_parent, dtype=np.int64),
                     job=np.frombuffer(self.span_job, dtype=np.int32),
                     start=np.frombuffer(self.span_start, dtype=np.float64),
                     end=np.frombuffer(self.span_end, dtype=np.float64))


def _counting(fn, hook, counters):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(counters, args, result)
        return result

    counted.__wrapped__ = fn
    return counted

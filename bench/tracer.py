"""Span recorder for the traced benchmark run.

Wraps every public function of the walkdim layer modules, and every
alias of it in other walkdim modules (``from .dirichlet import
harmonic_extension`` in ``cli``, re-exports in the package), so that a
nested call records a span whose parent is the calling span.  An import
finder adds one span per layer-module import, so cold-start cost is
attributed to the module whose import pulled it in.

A module's self time is the time inside its spans minus the time inside
their child spans.  Counters are recorded at the same call boundaries.
Spans stay in memory; ``dump`` writes them out for a parent process.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import sys
import time

LAYERS = ("ifs", "network", "audit", "levelgraph", "dirichlet", "besov")
IMPORT = "<import>"


def _count_graph(args, kwargs, result):
    return {"levelgraph.vertices": result.vertex_count, "levelgraph.edges": result.edge_count}


def _count_solve(args, kwargs, result):
    # solve_weighted_laplacian(vertex_count, edges, rhs, fixed)
    vertex_count = args[0] if args else kwargs["vertex_count"]
    fixed = args[3] if len(args) > 3 else kwargs["fixed"]
    return {"dirichlet.eliminated_vertices": vertex_count - len(fixed)}


def _count_scan(args, kwargs, result):
    return {"besov.pairs": sum(row.pair_count for row in result.rows)}


def _count_sample(args, kwargs, result):
    return {"ifs.sample_points": len(result.points)}


def _count_renorm(args, kwargs, result):
    return {"network.renorm_iterations": result.iterations}


# Work counters, keyed by the traced function they are read from.
COUNTERS = {
    "levelgraph.build_level_graph": _count_graph,
    "dirichlet.solve_weighted_laplacian": _count_solve,
    "besov.besov_functional": _count_scan,
    "ifs.sample_measure": _count_sample,
    "network.renorm_factor": _count_renorm,
}
COUNTER_NAMES = (
    "levelgraph.vertices",
    "levelgraph.edges",
    "dirichlet.eliminated_vertices",
    "besov.pairs",
    "ifs.sample_points",
    "network.renorm_iterations",
)


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def call(self, name: str, fn, args=(), kwargs=None):
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                self.counts[key] = self.counts.get(key, 0) + value
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def self_times(spans) -> dict[str, float]:
    """Self time per layer module: span time minus child-span time.

    Span names are ``<module>.<function>`` or ``<module>.<import>``;
    modules outside LAYERS are not reported, and their spans still
    subtract from their parents.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {layer: 0.0 for layer in LAYERS}
    for (name, start, end, parent), inner in zip(spans, child):
        module = name.split(".", 1)[0]
        if module in out:
            out[module] += (end - start) - inner
    return out


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def install(tracer: Tracer) -> None:
    """Replace each layer's public functions, and all their aliases in
    loaded walkdim modules, by traced wrappers."""
    originals = {}
    for layer in LAYERS:
        module = sys.modules[f"walkdim.{layer}"]
        for name, fn in public_functions(module).items():
            originals[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    for modname, module in list(sys.modules.items()):
        if modname != "walkdim" and not modname.startswith("walkdim."):
            continue
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


class ImportSpans(importlib.abc.MetaPathFinder):
    """Records a ``<layer>.<import>`` span around each layer module's
    execution; install before the first ``import walkdim``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        package, _, layer = fullname.partition(".")
        if package != "walkdim" or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            tracer.call(f"{layer}.{IMPORT}", execute, (module,))

        spec.loader.exec_module = exec_module
        return spec

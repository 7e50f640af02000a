"""Span tracing of graphforge, installed from outside the program.

`Tracer.install` replaces each traced function in every graphforge module
namespace that binds it (so names imported with `from .graph import
degree_vector` are caught as well as the defining module's own), wraps the
traced `Graph` methods on the class, and wraps the numpy/scipy symmetric
eigensolver entries. `uninstall` restores every replaced binding, so calls
made between traced calls run the program exactly as shipped.

Spans are kept in memory as (name, start, end, parent, call id); a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter
from functools import wraps
from pathlib import Path

# module -> traced public names; "Graph.x" names a method of graph.Graph
LAYERS = {
    "graph": ("load_edge_list", "write_edge_list", "Graph.from_edges", "degree_vector",
              "Graph.adjacency", "Graph.neighbor_sets", "average_clustering"),
    "spectral": ("modularity_matrix", "eigendecompose", "low_rank_approx"),
    "forge": ("forge", "edge_probabilities", "back_transform", "normalize",
              "sample_bernoulli", "normalized_entropy"),
    "community": ("louvain_maximize", "modularity"),
    "evaluate": ("compare", "dv_attack", "run_experiment"),
    "baselines": ("dcsbm_generate", "trajanovski_generate"),
    "generators": ("planted_partition",),
    "cli": ("dispatch",),
}

# every symmetric eigensolver entry the spectral layer might call
SOLVERS = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
           ("scipy.linalg", "eigh"), ("scipy.linalg", "eigvalsh"),
           ("scipy.sparse.linalg", "eigsh"))
SOLVER_SPAN = "spectral.eigensolver"

# exact counts computed at the traced boundaries from the call arguments
COUNTS = ("forge.dyads_sampled", "spectral.eigensolver.order3_sum",
          "evaluate.dv_attack.bfs_sources") + tuple(
    f"{SOLVER_SPAN}.{entry}.calls" for entry in ("eigh", "eigvalsh", "eigsh"))


def span_names() -> list[str]:
    names = [f"{module}.{name.split('.')[-1]}" for module, names in LAYERS.items()
             for name in names]
    return names + [SOLVER_SPAN]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.call_id = -1
        self.missing: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            if count is not None:
                count(args, kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.call_id)

        return wrapper

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)

    def _counter(self, span):
        counts = self.counts
        if span == "forge.sample_bernoulli":
            def count(args, kwargs):
                n = _arg(args, kwargs, 0, "prob_matrix").shape[0]
                counts["forge.dyads_sampled"] += n * (n - 1) // 2
            return count
        if span == "evaluate.dv_attack":
            def count(args, kwargs):
                n = _arg(args, kwargs, 0, "original").n
                seeds = args[3] if len(args) > 3 else kwargs.get("seeds")
                if seeds is None:
                    k = math.ceil(_arg(args, kwargs, 2, "config").seed_fraction * n)
                else:
                    k = len(set(seeds))
                # one BFS per seed in each of the two graphs, none if all are seeds
                counts["evaluate.dv_attack.bfs_sources"] += 2 * k if k < n else 0
            return count
        return None

    def _solver_counter(self, entry):
        counts = self.counts

        def count(args, kwargs):
            n = args[0].shape[0] if args else kwargs["a"].shape[0]
            counts["spectral.eigensolver.order3_sum"] += n ** 3
            counts[f"{SOLVER_SPAN}.{entry}.calls"] += 1
        return count

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "graphforge" or key.startswith("graphforge."))]
        for module_name, names in LAYERS.items():
            module = sys.modules[f"graphforge.{module_name}"]
            for name in names:
                span = f"{module_name}.{name.split('.')[-1]}"
                if name.startswith("Graph."):
                    cls, attr = module.Graph, name.split(".")[1]
                    raw = cls.__dict__.get(attr)
                    if raw is None:
                        self.missing.add(span)
                    elif isinstance(raw, classmethod):
                        self._replace(cls, attr, classmethod(self._wrap(span, raw.__func__)))
                    else:
                        self._replace(cls, attr, self._wrap(span, raw))
                    continue
                original = getattr(module, name, None)
                if original is None:
                    self.missing.add(span)
                    continue
                wrapper = self._wrap(span, original, self._counter(span))
                self._replace_everywhere(modules, original, wrapper)
        for module_name, name in SOLVERS:
            module = sys.modules.get(module_name)
            if module is None:
                continue  # never imported, so the program cannot be calling it
            original = getattr(module, name)
            wrapper = self._wrap(SOLVER_SPAN, original, self._solver_counter(name))
            self._replace_everywhere([module, *modules], original, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def per_name(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s] over all recorded spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            record = out.setdefault(name, [0, 0.0, 0.0])
            record[0] += 1
            record[1] += end - start
            record[2] += end - start - child[index]
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w") as handle:
            for name, start, end, parent, call in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "call": call}) + "\n")

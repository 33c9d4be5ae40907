"""Per-layer spans for a traced benchmark run.

The tracer replaces each function in ``WRAPS`` at the module attribute
through which alphaspec.verify and alphaspec.cli reach it, so every call
from the CLI down passes through exactly one wrapper.  Two layers are
reached one level deeper: verify reads files through
``graphs.read_graph6_file``, which calls ``graphs.parse_graph6``, and
enumerates through ``enumeration.enumerate_graphs``, which calls
``enumeration.isomorphism_classes``; those inner names are wrapped.
A name that no longer exists stops the run instead of reading as zero.

Spans are aggregated as they close: per layer a call count and a self
time (span minus its child spans), and per (parent, layer) edge the
calls, total and self time.  Importing this module changes nothing;
``install`` does.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, layer, kind).  "span" times each call, "iter" times
# each step of the generator the call returns, "count" only counts calls,
# "radius" is a span that also records the result's iteration count and
# the distinct (graph, alpha) pairs asked for.
WRAPS = (
    ("alphaspec.cli", "main", "cli.main", "span"),
    ("alphaspec.cli", "verify_order", "verify.verify_order", "span"),
    ("alphaspec.cli", "family_search", "verify.family_search", "span"),
    ("alphaspec.cli", "parse_graph6", "graphs.parse_graph6", "span"),
    ("alphaspec.cli", "matching_number", "matching.matching_number", "span"),
    ("alphaspec.cli", "spectral_radius", "spectral.spectral_radius", "radius"),
    ("alphaspec.cli", "classify_regime", "theorem.classify_regime", "span"),
    ("alphaspec.verify", "read_graph6_file", "graphs.read_graph6_file", "count"),
    ("alphaspec.graphs", "parse_graph6", "graphs.parse_graph6", "span"),
    ("alphaspec.verify", "to_graph6", "graphs.to_graph6", "span"),
    ("alphaspec.enumeration", "isomorphism_classes", "enumeration.isomorphism_classes", "span"),
    ("alphaspec.verify", "canonical_graph", "enumeration.canonical_graph", "span"),
    ("alphaspec.verify", "matching_number", "matching.matching_number", "span"),
    ("alphaspec.verify", "spectral_radius", "spectral.spectral_radius", "radius"),
    ("alphaspec.verify", "family_radius", "spectral.family_radius", "span"),
    ("alphaspec.verify", "candidate_families", "verify.candidate_families", "iter"),
    ("alphaspec.verify", "classify_regime", "theorem.classify_regime", "span"),
)

# Layers each workload must reach, and must not reach elsewhere.
USED_ONLY_ON = {
    "enumeration.isomorphism_classes": {"graphs"},
    "spectral.family_radius": {"family"},
    "spectral.spectral_radius": {"graphs"},
}

# (metric, unit, better) reported by a traced run, in BENCHMARK.json order.
PER_LAYER = (
    ("graphs.parse_graph6.calls", "count", "lower"),
    ("graphs.parse_graph6.s", "s", "lower"),
    ("graphs.to_graph6.s", "s", "lower"),
    ("graphs.source_passes", "count", "lower"),
    ("enumeration.isomorphism_classes.s", "s", "lower"),
    ("enumeration.canonical_graph.calls", "count", "lower"),
    ("enumeration.canonical_graph.s", "s", "lower"),
    ("matching.matching_number.calls", "count", "lower"),
    ("matching.matching_number.s", "s", "lower"),
    ("spectral.spectral_radius.calls", "count", "lower"),
    ("spectral.spectral_radius.s", "s", "lower"),
    ("spectral.spectral_radius.iterations_mean", "iterations", "lower"),
    ("spectral.useful_ratio", "ratio", "higher"),
    ("spectral.family_radius.calls", "count", "lower"),
    ("spectral.family_radius.s", "s", "lower"),
    ("verify.candidate_families.s", "s", "lower"),
    ("theorem.classify_regime.calls", "count", "lower"),
    ("theorem.classify_regime.s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    def __init__(self):
        self.stack = [["", 0.0, 0.0]]  # [layer, start, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, layer) -> calls, total, self
        self.iterations = 0
        self.radius_pairs = set()

    def enter(self, layer: str) -> None:
        self.stack.append([layer, time.perf_counter(), 0.0])

    def leave(self) -> None:
        layer, start, children = self.stack.pop()
        total = time.perf_counter() - start
        parent = self.stack[-1]
        parent[2] += total
        self.self_s[layer] += total - children
        edge = self.edges[(parent[0], layer)]
        edge[0] += 1
        edge[1] += total
        edge[2] += total - children

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "iterations": self.iterations,
            "radius_pairs": len(self.radius_pairs),
            "edges": [[p, c, *v] for (p, c), v in sorted(self.edges.items())],
        }

    # -- wrappers -------------------------------------------------------

    def span(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()
        return wrapper

    def radius(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(g, alpha, *args, **kwargs):
            self.calls[layer] += 1
            self.enter(layer)
            try:
                result = fn(g, alpha, *args, **kwargs)
            finally:
                self.leave()
            self.iterations += getattr(result, "iterations", 0)
            self.radius_pairs.add((g.n, g.rows, float(alpha)))
            return result
        return wrapper

    def iter(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            steps = fn(*args, **kwargs)
            while True:
                self.enter(layer)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    self.leave()
                yield item
        return wrapper

    def count(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper


def install() -> Tracer:
    """Wrap every name in WRAPS; raise if one is missing."""
    tracer = Tracer()
    for module_name, attr, layer, kind in WRAPS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise RuntimeError(f"traced name {module_name}.{attr} no longer exists")
        setattr(module, attr, getattr(tracer, kind)(layer, fn))
    return tracer


def layer_metrics(summary: dict, commands: list[list[str]], overhead_frac: float) -> dict[str, float]:
    """The PER_LAYER values of one traced batch.  A ratio whose base is
    zero (the layer was not reached) reads 0."""
    calls = defaultdict(int, summary["calls"])
    self_s = defaultdict(float, summary["self_s"])
    graph6_verifies = sum(1 for argv in commands if argv[0] == "verify" and "--graph6" in argv)
    radius_calls = calls["spectral.spectral_radius"]
    values = {
        "graphs.source_passes": calls["graphs.read_graph6_file"] / graph6_verifies if graph6_verifies else 0.0,
        "spectral.spectral_radius.iterations_mean": summary["iterations"] / radius_calls if radius_calls else 0.0,
        "spectral.useful_ratio": summary["radius_pairs"] / radius_calls if radius_calls else 0.0,
        "verify.self_s": self_s["verify.verify_order"] + self_s["verify.family_search"],
        "cli.self_s": self_s["cli.main"],
        "trace.overhead_frac": overhead_frac,
    }
    for name, _unit, _better in PER_LAYER:
        if name in values:
            continue
        layer, kind = name.rsplit(".", 1)
        values[name] = float(calls[layer]) if kind == "calls" else self_s[layer]
    return {name: values[name] for name, _unit, _better in PER_LAYER}


def deterministic_counts(summary: dict) -> dict:
    """The parts of a trace that must repeat exactly for the same code and seed."""
    return {
        "calls": dict(sorted(summary["calls"].items())),
        "iterations": summary["iterations"],
        "radius_pairs": summary["radius_pairs"],
    }


def bypass_violations(workload: str, summary: dict) -> list[str]:
    out = []
    for layer, workloads in USED_ONLY_ON.items():
        calls = summary["calls"].get(layer, 0)
        if workload in workloads and calls == 0:
            out.append(f"{layer} was not called on {workload}")
        if workload not in workloads and calls:
            out.append(f"{layer} was called {calls} times on {workload}, which must bypass it")
    return out

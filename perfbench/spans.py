"""Span tracing for the benchmark's traced runs.

A Tracer replaces each public function of each rieszpoints layer, in
every rieszpoints module namespace that binds it, with a wrapper that
records one span per call: id, parent id, name, start and end
(perf_counter_ns). Spans stay in memory until the run writes them out.
Wrappers pass arguments and results through untouched, so traced
outputs are identical to untraced ones.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import NamedTuple

import numpy as np

LAYERS = ("configurations", "sets", "measures", "kernel", "discrepancy", "oracles", "acceptance", "cli")


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root span
    name: str  # "<layer>.<function>"
    start: int  # ns
    end: int  # ns


def _leja_pairs(args, kwargs):
    state = args[0] if args else kwargs["state"]
    return len(state.candidates) * state.prefix.n


def _potential_pairs(args, kwargs):
    X = args[0] if args else kwargs["X"]
    y = args[2] if len(args) > 2 else kwargs["y"]
    return (len(y) if np.ndim(y) == 2 else 1) * X.n


# work counters computed from a call's arguments, keyed by span name
PAIR_COUNTERS = {
    "configurations.leja_next": _leja_pairs,
    "measures.discrete_potential": _potential_pairs,
}


class Tracer:
    """Records spans around calls into the rieszpoints layers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pairs: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []

    def wrap(self, name, fn):
        spans = self.spans
        ids = self._ids
        local = self._local
        pair_counter = PAIR_COUNTERS.get(name)
        pairs = self.pairs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            if pair_counter is not None:
                pairs[name] += pair_counter(args, kwargs)
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append(Span(span_id, parent, name, start, end))

        return traced

    def _wrap_oracle_factory(self, fn):
        """equilibrium_oracle: its returned callables count as ``sets``."""
        def factory(*args, **kwargs):
            oracle = fn(*args, **kwargs)
            return dataclasses.replace(
                oracle,
                potential=self.wrap("sets.oracle.potential", oracle.potential),
                green=self.wrap("sets.oracle.green", oracle.green),
                sampler=self.wrap("sets.oracle.sampler", oracle.sampler),
            )

        return self.wrap("sets.equilibrium_oracle", functools.wraps(fn)(factory))

    def install(self):
        """Swap every layer's public functions for traced wrappers."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"rieszpoints.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if (layer, attr) == ("sets", "equilibrium_oracle"):
                    wrappers[id(obj)] = (obj, self._wrap_oracle_factory(obj))
                else:
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "rieszpoints" and not modname.startswith("rieszpoints."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(s._asdict()) + "\n")


def wrapper_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a Tracer wrapper adds to one call: ``calls`` calls of a
    wrapped no-op against the bare no-op, median over ``repeats``."""
    def noop(*args, **kwargs):
        return None

    tracer = Tracer()
    traced = tracer.wrap("perfbench.noop", noop)

    def loop(fn):
        start = perf_counter_ns()
        for _ in range(calls):
            fn(None, key=None)
        return perf_counter_ns() - start

    extra = []
    for _ in range(repeats):
        tracer.spans.clear()
        extra.append(loop(traced) - loop(noop))
    return statistics.median(extra) * 1e-9 / calls


def self_times(spans) -> dict[int, int]:
    """Self time of each span (ns): its duration minus its children's."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans) -> dict:
    """Totals over a list of spans, in seconds and counts.

    ``self_s[layer]`` sums self time over the layer's spans.
    ``inclusive_s[name]`` sums the durations of the spans of ``name``
    that have no enclosing span of the same name, so recursion is not
    counted twice. ``calls[name]`` and ``layer_calls[layer]`` count spans.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    self_s = defaultdict(float)
    inclusive_s = defaultdict(float)
    calls = defaultdict(int)
    layer_calls = defaultdict(int)
    for s in spans:
        layer = layer_of(s.name)
        self_s[layer] += own[s.id] * 1e-9
        calls[s.name] += 1
        layer_calls[layer] += 1
        p = by_id.get(s.parent)
        while p is not None and p.name != s.name:
            p = by_id.get(p.parent)
        if p is None:
            inclusive_s[s.name] += (s.end - s.start) * 1e-9
    return {"self_s": dict(self_s), "inclusive_s": dict(inclusive_s),
            "calls": dict(calls), "layer_calls": dict(layer_calls)}

"""Span recorder and run-time wrappers around the package's public entry points.

Nothing under ``src/`` is edited: `install` rebinds module attributes of the
loaded ``comaximal`` modules, re-wraps `RingTable` cached properties and
`SimpleGraph.__init__`, and swaps `ClaimSpec.check` in the claim registries.
`Tracer.uninstall` puts every original object back.  A target that a later
version of the package no longer has is skipped, and its metrics read 0.

Spans are kept in memory as ``[name, item, parent, start_ns, end_ns]`` and
written out once, at the end of a run.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import Counter
from functools import cached_property
from time import perf_counter_ns

import numpy as np

ROOT = -1

# (home module, attribute, span name): module-level functions.  Every alias
# of the same function object in any loaded ``comaximal`` module is rebound,
# so calls made inside the package go through the wrapper too.
FUNCTIONS = (
    ("comaximal.construct", "ring_from_text", "construct"),
    ("comaximal.rings", "maximal_ideals_bruteforce", "rings.crosscheck"),
    ("comaximal.rings", "ring_isomorphic", "isomorphism.ring"),
    ("comaximal.graphs", "build_comaximal_graph", "graphs.build"),
    ("comaximal.graphs", "join", "graphs.build"),
    ("comaximal.graphs", "metrics", "graphs.metrics"),
    ("comaximal.graphs", "max_clique", "graphs.clique"),
    ("comaximal.graphs", "chromatic_number", "graphs.chromatic"),
    ("comaximal.graphs", "multipartite_structure", "graphs.multipartite"),
    ("comaximal.isomorphism", "are_isomorphic", "isomorphism.graph"),
    ("comaximal.claims", "sweep", "claims.sweep"),
    ("comaximal.claims", "verify_pair", "claims.verify_pair"),
)

# (module, class, attribute, span name): methods and cached properties.
CLASS_ATTRS = (
    ("comaximal.rings", "RingTable", "unit_flags", "rings.units"),
    ("comaximal.rings", "RingTable", "jacobson_radical", "rings.radical"),
    ("comaximal.rings", "RingTable", "maximal_ideals", "rings.maximal_ideals"),
    ("comaximal.rings", "RingTable", "quotient", "rings.quotient"),
    ("comaximal.graphs", "SimpleGraph", "__init__", "graphs.init"),
)

CLAIM_REGISTRIES = ("SINGLE_CLAIMS", "PAIR_CLAIMS")


class Tracer:
    """Records nested spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._bindings: list[tuple] | None = None
        self.table_limit = None

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else ROOT
        span = [name, self.item, parent, perf_counter_ns(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, on_result=None):
        """`fn` inside a span; `on_result(args, result)` counts outside it."""
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
                self.counts[calls] += 1
            if on_result is not None:
                try:
                    on_result(args, result)
                except AttributeError:
                    self.counts["trace.hook_errors"] += 1
            return result

        return traced

    # -- counters taken where the work happens ------------------------------

    def _count_ring(self, args, ring) -> None:
        if self.table_limit is not None and ring.size <= self.table_limit:
            self.counts["construct.table_rings"] += 1

    def _count_graph(self, args, graph) -> None:
        ring = args[0]
        keys = np.asarray(graph.vertex_keys, dtype=np.int64)
        self.counts["graphs.vertices"] += graph.n
        self.counts["graphs.edges"] += graph.edge_count
        if graph.n:
            classes = np.unique(np.asarray(ring.signature_array)[keys])
            self.counts["graphs.signature_classes"] += len(classes)

    def _count_graph_iso(self, args, mapping) -> None:
        if mapping is not None:
            self.counts["isomorphism.graph.found"] += 1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Put every wrapper in place; cheap after the first call."""
        if self._bindings is None:
            self._bindings = self._prepare()
        for setter, key, new, _ in self._bindings:
            setter(key, new)

    def uninstall(self) -> None:
        """Put every original back."""
        for setter, key, _, old in reversed(self._bindings or ()):
            setter(key, old)

    def _prepare(self) -> list[tuple]:
        """(setter, key, wrapper, original) for every target the package has."""
        modules = {k: m for k, m in sys.modules.items() if k == "comaximal" or k.startswith("comaximal.")}
        self.table_limit = getattr(modules.get("comaximal.limits"), "TABLE_LIMIT", None)
        hooks = {
            "ring_from_text": self._count_ring,
            "build_comaximal_graph": self._count_graph,
            "are_isomorphic": self._count_graph_iso,
        }
        bindings = []

        def rebind(owner, key, new, old):
            bindings.append((lambda k, v: setattr(owner, k, v), key, new, old))

        for home, attr, name in FUNCTIONS:
            original = getattr(modules.get(home), attr, None)
            if original is None:
                continue
            wrapped = self.wrap(original, name, hooks.get(attr))
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        rebind(module, key, wrapped, original)
        for home, cls_name, attr, name in CLASS_ATTRS:
            cls = getattr(modules.get(home), cls_name, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if isinstance(original, cached_property):
                replacement = cached_property(self.wrap(original.func, name))
                replacement.__set_name__(cls, attr)
            elif callable(original):
                replacement = self.wrap(original, name)
            else:
                continue
            rebind(cls, attr, replacement, original)
        claims = modules.get("comaximal.claims")
        for registry_name in CLAIM_REGISTRIES:
            registry = getattr(claims, registry_name, None)
            if not isinstance(registry, dict):
                continue
            for cid, spec in list(registry.items()):
                if dataclasses.is_dataclass(spec) and hasattr(spec, "check"):
                    wrapped = dataclasses.replace(spec, check=self.wrap(spec.check, f"claims.{cid}"))
                    bindings.append((registry.__setitem__, cid, wrapped, spec))
        return bindings

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Duration of each span minus the durations of its direct children."""
        own = [end - start for _, _, _, start, end in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent != ROOT:
                own[parent] -= end - start
        return own

    def consistency_errors(self, wall_ns: int) -> list[str]:
        """Spans nest inside items, share their item's id, and self times fit in the wall time."""
        errors = []
        if self._stack:
            errors.append(f"{len(self._stack)} spans still open")
        own = self.self_times()
        for index, (name, item, parent, start, end) in enumerate(self.spans):
            if own[index] < 0:
                errors.append(f"span {index} ({name}) is shorter than its children")
            if item is None:
                errors.append(f"span {index} ({name}) belongs to no item")
            if parent == ROOT:
                if name != "item":
                    errors.append(f"span {index} ({name}) runs outside any item")
                continue
            p_name, p_item, _, p_start, p_end = self.spans[parent]
            if parent >= index or start < p_start or end > p_end:
                errors.append(f"span {index} ({name}) does not nest in span {parent} ({p_name})")
            if item != p_item:
                errors.append(f"span {index} ({name}) has item {item!r}, its parent {p_item!r}")
            if len(errors) > 20:
                break
        total = sum(own)
        if total > wall_ns:
            errors.append(f"self times sum to {total} ns, more than the traced wall time {wall_ns} ns")
        return errors

    def busy_s(self) -> Counter:
        """Self time in seconds per span name, and per layer (first name part)."""
        out: Counter = Counter()
        for (name, *_), own in zip(self.spans, self.self_times()):
            out[name] += own / 1e9
            layer = name.split(".", 1)[0]
            if layer != name:
                out[layer] += own / 1e9
        return out

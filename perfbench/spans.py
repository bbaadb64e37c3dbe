"""In-memory spans around calls into negaseq's public functions.

Times are CPU seconds of this process, like the operation times.
A traced run patches the module attributes listed in `HOOKS` (and the two
`ReducedGraph` methods) with wrappers that record one span per call:
name, start, end, parent span, operation id and an optional count.  Calls
that one library module makes into another go through these attributes
too (for example `search.is_nos`), so library-internal layer crossings
are spanned without changing any code under `src/`.  Hot per-window
helpers (`encode`, `nega_reverse_code`, `Word` methods) are left alone:
a span costs about a microsecond, as much as those helpers themselves.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name, count extractor or None).  The count is
# read from the call's result: expansions for a search, edges for a
# subgraph.  Modules are named relative to the `negaseq` package.
HOOKS = [
    ("tuples", "count_class", "tuples.count_class", None),
    ("graph", "count_class", "tuples.count_class", None),
    ("graph", "edge_count_formula", "graph.edge_count_formula", None),
    ("graph", "excluded_edge_budget", "graph.excluded_edge_budget", None),
    ("bounds", "excluded_edge_budget", "graph.excluded_edge_budget", None),
    ("graph", "vertex_profile", "graph.vertex_profile", None),
    ("graph", "sequence_subgraph", "graph.sequence_subgraph",
     lambda sub: sub.edge_count()),
    ("graph", "export_dot", "graph.export_dot", None),
    ("verify", "is_window_sequence", "verify.is_window_sequence", None),
    ("verify", "is_nos", "verify.is_nos", None),
    ("search", "is_nos", "verify.is_nos", None),
    ("verify", "is_os", "verify.is_os", None),
    ("bounds", "nos_bound", "bounds.nos_bound", None),
    ("search", "nos_bound", "bounds.nos_bound", None),
    ("bounds", "bound_table", "bounds.bound_table", None),
    ("bounds", "load_reference_table", "bounds.load_reference_table", None),
    ("search", "max_nos_search", "search.max_nos_search",
     lambda r: (r.expansions, r.optimal, r.bound - r.period)),
    ("search", "canonicalize", "search.canonicalize", None),
    ("search", "certify", "search.certify", None),
    ("search", "graph_content_hash", "search.graph_content_hash", None),
]

LAYERS = ("tuples", "graph", "verify", "bounds", "search", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "op_class", "count")

    def __init__(self, name, start, parent, op, op_class):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.op_class = op_class
        self.count = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "op_class": self.op_class, "count": self.count}


class Tracer:
    """Records spans for one single-threaded run; nothing leaves memory
    until `write` is called."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._op_class = ""

    def begin_op(self, op_class: str) -> None:
        """Start a new benchmark operation; later spans carry its id."""
        self._op += 1
        self._op_class = op_class

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.process_time(), parent, self._op, self._op_class)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        return s

    def _close(self, s: Span) -> None:
        s.end = time.process_time()
        self._stack.pop()

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    s.count = count(result)
                return result
            finally:
                self._close(s)
        return traced

    def wrap_generator(self, fn, name, count):
        """Span from the first item requested to exhaustion; the count is
        computed from the call's arguments."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            s.count = count(*args, **kwargs)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self._close(s)
        return traced

    @contextmanager
    def instrument(self):
        """Patch the hooked attributes for the duration of the block."""
        import importlib

        from negaseq import graph, tuples

        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        for module_name, attr, name, count in HOOKS:
            module = importlib.import_module(f"negaseq.{module_name}")
            patch(module, attr, self.wrap(getattr(module, attr), name, count))
        # Count the words enumerated (k^n), not the ones in the class.
        patch(tuples, "enumerate_class",
              self.wrap_generator(tuples.enumerate_class, "tuples.enumerate_class",
                                  lambda cls, n, k, *rest, **kw: k**n))
        for method in ("__init__", "edge_bitmap"):
            patch(graph.ReducedGraph, method,
                  self.wrap(getattr(graph.ReducedGraph, method), "graph.reduced_graph"))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(s.as_dict(i)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time covered by its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def summarize(spans: list[Span]) -> dict:
    """Totals by span name, by (name, op class) and by layer (self time)."""
    by_name = defaultdict(float)
    by_class = defaultdict(float)
    counts = defaultdict(list)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, own in zip(spans, self_times(spans)):
        by_name[s.name] += s.seconds
        by_class[(s.name, s.op_class)] += s.seconds
        if s.count is not None:
            counts[(s.name, s.op_class)].append(s.count)
        layer_self[s.name.split(".", 1)[0]] += own
    return {"by_name": by_name, "by_class": by_class, "counts": counts,
            "layer_self": layer_self}

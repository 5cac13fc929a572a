"""Span tracer that wraps the public functions of each `primeclique` layer.

The program itself is not instrumented: the tracer swaps module attributes
for recording wrappers while a traced operation runs and puts the
originals back afterwards, so untraced solves run the unmodified code.

A span is (layer, start, end, parent span, request id). Root spans (no
parent) start a new request id, so the spans of one solve share an id.
Spans are kept in compact arrays in memory and written out at the end.
A layer's self time is its span's duration minus its child spans.
"""

import sys
import time
from array import array
from contextlib import contextmanager

# (layer, module of primeclique, attribute) in the order they are reported.
LAYERS = (
    ("cli", "cli", "main"),
    ("parse", "graph_io", "parse_dimacs"),
    ("assign", "encoding", "PrimeAssignment.default"),
    ("encode", "encoding", "encode"),
    ("solver", "solver", "solve_graph"),
    ("enumerate", "solver", "find_cliques"),
    ("sort", "solver", "sort_by_weight"),
    ("merge", "solver", "merge_equal_weights"),
    ("partition", "solver", "partition_by_pivot"),
    ("eliminate", "solver", "eliminate_case1_from_right"),
    ("check", "solver", "sanitize"),
    ("prune", "solver", "drop_contained_ids"),
    ("decode", "encoding", "decode_clique"),
    ("format", "graph_io", "write_cliques"),
    ("oracle", "oracle", "bron_kerbosch"),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)

# Requests whose spans `Tracer.write` keeps; all of them would take tens of MB.
WRITTEN_REQUESTS = 16

# SolverStats fields copied into counts, as (stats attribute, count key).
STATS_FIELDS = (
    ("recursive_calls", "recursive_calls"),
    ("merges", "merges"),
    ("pivot_splits", "pivot_splits"),
    ("case1_count", "case1"),
    ("case2_count", "case2"),
    ("gcd_calls", "gcd_calls"),
    ("max_weight_bits", "max_weight_bits"),
)


def _count_tuples(args, result):
    return {"tuples": len(args[0])}


def _count_prune(args, result):
    return {"in": len(args[0]), "out": len(result)}


def _count_raw_ids(args, result):
    return {"raw_ids": len(result[0])}


def _count_stats(args, result):
    stats = result[1]
    return {key: getattr(stats, attr) for attr, key in STATS_FIELDS if hasattr(stats, attr)}


# Counts taken from a layer's arguments or result, summed over calls.
COUNTERS = {
    "sort": _count_tuples,
    "merge": _count_tuples,
    "partition": _count_tuples,
    "eliminate": _count_tuples,
    "prune": _count_prune,
    "enumerate": _count_raw_ids,
    "solver": _count_stats,
}


class Tracer:
    """Records spans for the layers of one imported `primeclique` package."""

    def __init__(self):
        self.layer = array("b")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[tuple[str, str], int] = {}
        self.requests = 0
        self.absent: list[str] = []
        self._stack = [-1]
        self._patches = self._plan("primeclique")

    def _plan(self, package):
        """Find every attribute to swap: each layer's function plus every
        module-level alias of it (``from .x import f`` and re-exports)."""
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        patches = []
        for index, (layer, module_name, attr) in enumerate(LAYERS):
            owner = sys.modules.get(f"{package}.{module_name}")
            *outer, name = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(name) if owner is not None else None
            if not callable(original) and not isinstance(original, classmethod):
                self.absent.append(layer)
                continue
            if isinstance(original, classmethod):
                patches.append((owner, name, original, classmethod(self._wrap(index, original.__func__))))
                continue
            wrapper = self._wrap(index, original)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, alias, original, wrapper))
        return patches

    def _wrap(self, index, fn):
        layer, parent, request, start, end = self.layer, self.parent, self.request, self.start, self.end
        stack = self._stack
        name = LAYERS[index][0]
        counter = COUNTERS.get(name)
        counts = self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(layer)
            up = stack[-1]
            if up < 0:
                self.requests += 1
            layer.append(index)
            parent.append(up)
            request.append(self.requests)
            start.append(0)
            end.append(0)
            stack.append(span)
            start[span] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if counter is not None:
                try:
                    found = counter(args, result)
                except (TypeError, IndexError, AttributeError):
                    found = {}
                for key, value in found.items():
                    counts[name, key] = counts.get((name, key), 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self):
        """Swap the wrappers in for the duration of the block."""
        for owner, alias, _original, wrapper in self._patches:
            setattr(owner, alias, wrapper)
        try:
            yield
        finally:
            for owner, alias, original, _wrapper in reversed(self._patches):
                setattr(owner, alias, original)

    def totals(self):
        """Per layer: (calls, inclusive ns, self ns)."""
        n = len(self.layer)
        child = [0] * n
        for i in range(n):
            up = self.parent[i]
            if up >= 0:
                child[up] += self.end[i] - self.start[i]
        calls = dict.fromkeys(LAYER_NAMES, 0)
        inclusive = dict.fromkeys(LAYER_NAMES, 0)
        own = dict.fromkeys(LAYER_NAMES, 0)
        for i in range(n):
            name = LAYER_NAMES[self.layer[i]]
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            inclusive[name] += duration
            own[name] += duration - child[i]
        return calls, inclusive, own

    def write(self, path):
        """Write the spans of the first WRITTEN_REQUESTS requests, one per line."""
        with open(path, "w") as fh:
            fh.write("request\tspan\tparent\tlayer\tstart_ns\tend_ns\n")
            for i in range(len(self.layer)):
                if self.request[i] > WRITTEN_REQUESTS:
                    break
                fh.write(
                    f"{self.request[i]}\t{i}\t{self.parent[i]}\t{LAYER_NAMES[self.layer[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\n"
                )

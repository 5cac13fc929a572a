"""Maximal-clique enumeration over the arithmetic encoding, on an explicit stack.

Each step sorts a tuple list by weight, merges vertices with equal weights
(equal weight means equal closed neighborhood, so such vertices belong to
exactly the same cliques and coalesce into one tuple whose value is the
product of theirs), and stops when one tuple is left, emitting its value as
a clique id. Otherwise the first tuple becomes the pivot and the rest split
three ways:

* not adjacent to the pivot: kept for the pivot-free side unchanged;
* adjacent, with closed neighborhood contained in the pivot's ("case 1"):
  the pivot's prime is divided out and the vertex moves entirely into the
  pivot's induced subgraph, since every clique through it contains the pivot;
* adjacent, with neighbors outside the pivot's ("case 2"): the vertex is
  copied to both sides, the induced-subgraph copy with its weight
  restricted by gcd to the pivot's neighborhood.

Case-1 primes are then divided out of the pivot-free copies of case-2
vertices, since no maximal clique avoiding the pivot can use a case-1
vertex. No other tuple carries one, as a case-1 vertex's closed
neighborhood lies inside the pivot's. Where the paper recurses on both
sides, each side here becomes a stack entry ``(tuples, prefix, common)``:
``prefix`` is the product of the pivot values whose induced subgraph the
entry lies in (an id found in the entry is emitted times it), and
``common`` the gcd of those vertices' input weights, their common closed
neighborhood (0, the gcd identity, at the root). The pivot-free side is
pushed first, so the pivot side is finished before it and ids come out
in the order of the paper's recursion. A pivot whose induced subgraph is
empty is emitted as a singleton clique, which the empty pivot side would
otherwise drop. The nesting lives on the stack, not in interpreter
frames, so no recursion limit applies.

The paper's literal (raw) output is a list of clique ids in emission
order. It holds every maximal clique but may include non-maximal ones:
pivot-free ids inside the pivot's closed neighborhood. A clique is
maximal exactly when the gcd of its members' input weights equals its
id. ``common_of`` maps each value to that gcd over its vertices: a vertex
to its weight, a merged value (the union of its parts' vertices) to the
gcd of its parts' entries. One gcd per step, of ``common`` with the
pivot's entry, gives the common neighborhood of ``prefix * pivot.value``.
Sanitized enumeration emits that id only when the two are equal, so it
emits every maximal clique exactly once; ``sanitize`` stays the
integrity check and prune for literal lists.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from . import encoding
from .encoding import EncodedGraph, Graph, WeightedVertex
from .errors import IntegrityError

__all__ = [
    "SolverConfig",
    "SolverStats",
    "TupleList",
    "sort_by_weight",
    "merge_equal_weights",
    "partition_by_pivot",
    "eliminate_case1_from_right",
    "find_cliques",
    "drop_contained_ids",
    "sanitize",
    "solve_graph",
]

TupleList = list[WeightedVertex]


@dataclass(frozen=True)
class SolverConfig:
    pivot_order: Literal["descending", "ascending"] = "descending"
    sanitize: bool = True


@dataclass
class SolverStats:
    """Counters probing the enumeration's shape and the encoding's growth.

    ``recursive_calls`` counts stack entries, one per call of the paper's
    recursion. ``gcd_calls`` is one per case-2 split.
    """

    recursive_calls: int = 0
    merges: int = 0
    pivot_splits: int = 0
    case1_count: int = 0
    case2_count: int = 0
    gcd_calls: int = 0
    max_weight_bits: int = 0


def sort_by_weight(q: Sequence[WeightedVertex], order: str = "descending") -> TupleList:
    """Stable sort by weight; equal weights stay in input order, adjacent."""
    if order not in ("descending", "ascending"):
        raise ValueError(f"unknown order {order!r}")
    return sorted(q, key=lambda t: t.weight, reverse=order == "descending")


def merge_equal_weights(q: Sequence[WeightedVertex], common_of: dict[int, int]) -> TupleList:
    """Coalesce each run of equal weights into one tuple.

    The merged value is the product of the run's values; the weight is
    unchanged. Expects equal weights to be adjacent (a sorted input).
    ``common_of`` maps each value to the gcd of its vertices' input
    weights; every merged value gets the gcd of its parts' entries.
    """
    merged: TupleList = []
    for t in q:
        if merged and merged[-1].weight == t.weight:
            value = merged[-1].value * t.value
            common_of[value] = math.gcd(common_of[merged[-1].value], common_of[t.value])
            merged[-1] = WeightedVertex(value, t.weight)
        else:
            merged.append(t)
    return merged


def partition_by_pivot(
    rest: Sequence[WeightedVertex], pivot: WeightedVertex
) -> tuple[TupleList, TupleList, TupleList]:
    """Split the tuples after the pivot into (left, right, pivot-bound).

    ``rest`` holds the sorted, merged list minus its first element, the
    pivot. Left is the pivot's induced subgraph, right the subgraph where
    the pivot is excluded, and the third list repeats the case-1 members
    of left (vertices confined to the pivot's closed neighborhood). Right
    is the case-2 copies with the case-1 values divided out (only they can
    carry one), then the pivot's non-neighbors unchanged.
    """
    left: TupleList = []
    right: TupleList = []
    copies: TupleList = []
    pivot_bound: TupleList = []
    for t in rest:
        if t.weight % pivot.value != 0:
            right.append(t)
            continue
        reduced = t.weight // pivot.value
        if pivot.weight % reduced == 0:
            member = WeightedVertex(t.value, reduced)
            left.append(member)
            pivot_bound.append(member)
        else:
            left.append(WeightedVertex(t.value, math.gcd(pivot.weight, reduced)))
            copies.append(WeightedVertex(t.value, reduced))
    if pivot_bound:
        copies = eliminate_case1_from_right(copies, pivot_bound)
    return left, copies + right, pivot_bound


def eliminate_case1_from_right(
    right: Sequence[WeightedVertex], pivot_bound: Sequence[WeightedVertex]
) -> TupleList:
    """Divide every case-1 value out of the right-hand weights it divides."""
    out: TupleList = []
    for t in right:
        w = t.weight
        for member in pivot_bound:
            if w % member.value == 0:
                w //= member.value
        out.append(t if w == t.weight else WeightedVertex(t.value, w))
    return out


def find_cliques(
    q: Sequence[WeightedVertex], config: SolverConfig | None = None
) -> tuple[frozenset[int] | list[int], SolverStats]:
    """Enumerate clique ids for an encoded tuple list.

    Returns the maximal-clique ids as a frozenset when ``config.sanitize``
    is on, or the paper's literal id list in emission order when it is off.
    Both runs make the same steps, so their stats are equal.
    """
    if config is None:
        config = SolverConfig()
    # Every weight the enumeration forms divides an input weight (partition
    # divides or takes a gcd, elimination divides), so the input is widest.
    stats = SolverStats(max_weight_bits=max((t.weight.bit_length() for t in q), default=0))
    ids = _enumerate(q, config.pivot_order, stats, config.sanitize)
    return (frozenset(ids) if config.sanitize else ids), stats


def _enumerate(q: Sequence[WeightedVertex], order: str, stats: SolverStats, maximal: bool) -> list[int]:
    emitted: list[int] = []
    common_of = {t.value: t.weight for t in q}
    stack = [(q, 1, 0)]
    while stack:
        q, prefix, common = stack.pop()
        stats.recursive_calls += 1
        q = sort_by_weight(q, order)
        if not q:
            continue
        n = len(q)
        q = merge_equal_weights(q, common_of)
        stats.merges += n - len(q)
        pivot = q[0]
        inner = math.gcd(common, common_of[pivot.value])
        if len(q) > 1:
            stats.pivot_splits += 1
            left, right, pivot_bound = partition_by_pivot(q[1:], pivot)
            case2 = len(left) - len(pivot_bound)
            stats.case1_count += len(pivot_bound)
            stats.case2_count += case2
            stats.gcd_calls += case2
            # Pushed first, so popped after the whole pivot side.
            stack.append((right, prefix, common))
            stack.append((left, prefix * pivot.value, inner))
            if left:
                continue
            # An isolated pivot forms its own maximal clique; the empty
            # pivot side would silently lose it.
        clique_id = prefix * pivot.value
        if not maximal or inner == clique_id:
            emitted.append(clique_id)
    return emitted


def drop_contained_ids(ids: Iterable[int]) -> frozenset[int]:
    """Deduplicate and drop ids whose vertex set is contained in another's.

    For squarefree ids containment is exactly divisibility, so no
    assignment is needed. A proper divisor is numerically smaller, which
    bounds the scan.
    """
    ordered = sorted(set(ids))
    kept = []
    for i, a in enumerate(ordered):
        if any(b % a == 0 for b in ordered[i + 1 :]):
            continue
        kept.append(a)
    return frozenset(kept)


def sanitize(raw: Iterable[int], eg: EncodedGraph) -> frozenset[int]:
    """Integrity-check raw ids against the encoding, then prune.

    Every id must decode over the encoding's assignment to a set of
    pairwise adjacent vertices; otherwise IntegrityError. Duplicates and
    ids contained in another id are dropped. Meant for literal lists:
    sanitized enumeration already emits only maximal ids.
    """
    raw = list(raw)
    for clique_id in raw:
        _decode_clique_checked(clique_id, eg)
    return drop_contained_ids(raw)


def _decode_clique_checked(clique_id: int, eg: EncodedGraph) -> set[int]:
    """Decode an id, raising IntegrityError unless its vertices form a clique.

    The vertices are pairwise adjacent exactly when the id divides the
    weight of each of them.
    """
    members = encoding.decode_clique(clique_id, eg.assignment)
    tuples = eg.tuples
    if any(tuples[v - 1].weight % clique_id for v in members):
        # Name the first non-adjacent pair (a, b), a < b.
        a = min(v for v in members if tuples[v - 1].weight % clique_id)
        b = min(v for v in members if tuples[a - 1].weight % tuples[v - 1].value)
        raise IntegrityError(
            f"id {clique_id} decodes to a non-clique: "
            f"vertices {a} and {b} are not adjacent"
        )
    return members


def solve_graph(
    g: Graph,
    config: SolverConfig | None = None,
    assignment: encoding.PrimeAssignment | None = None,
) -> tuple[list[frozenset[int]], SolverStats]:
    """Encode a graph, enumerate, and decode ids back to vertex sets.

    Sanitized mode returns each maximal clique once, in id order, as the
    enumeration emits it; raw mode returns the literal ids in emission
    order, non-maximal entries included. Each id is decoded once and checked
    to be a clique (IntegrityError otherwise).
    """
    if config is None:
        config = SolverConfig()
    eg = encoding.encode(g, assignment)
    ids, stats = find_cliques(eg.tuples, config)
    if config.sanitize:
        ids = sorted(ids)
    cliques = [frozenset(_decode_clique_checked(i, eg)) for i in ids]
    return cliques, stats

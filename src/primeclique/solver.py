"""Recursive maximal-clique enumeration over the arithmetic encoding.

Each call sorts the tuple list by weight, merges vertices with equal
weights (equal weight means equal closed neighborhood, so such vertices
belong to exactly the same cliques and coalesce into one tuple whose value
is the product of theirs), and terminates when one tuple is left, emitting
its value as a clique id. Otherwise the first tuple becomes the pivot and
the rest split three ways:

* not adjacent to the pivot: kept for the pivot-free branch unchanged;
* adjacent, with closed neighborhood contained in the pivot's ("case 1"):
  the pivot's prime is divided out and the vertex moves entirely into the
  pivot's induced subgraph, since every clique through it contains the pivot;
* adjacent, with neighbors outside the pivot's ("case 2"): the vertex is
  copied to both branches, the induced-subgraph copy with its weight
  restricted by gcd to the pivot's neighborhood.

Case-1 primes are then divided out of the pivot-free branch's weights,
since no maximal clique avoiding the pivot can use a case-1 vertex. Both
branches recurse; ids from the induced subgraph are multiplied by the
pivot's value. A pivot whose induced subgraph is empty is emitted as a
singleton clique, which the plain recursion would otherwise drop.

The paper's literal (raw) output is a list of clique ids in emission
order. It covers every maximal clique but may include non-maximal ones:
pivot-free ids inside the pivot's closed neighborhood. Sanitized
enumeration drops each pivot-free id that divides the pivot's weight, so
it emits every maximal clique exactly once; ``sanitize`` stays the
integrity check and prune for literal lists.
"""

import math
import sys
from dataclasses import dataclass, replace
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
    collect_stats: bool = True
    # Sanitized ids as a list in emission order rather than a frozenset:
    # solve_graph decodes and checks the list itself.
    as_list: bool = False


@dataclass
class SolverStats:
    """Counters probing the recursion's shape and the encoding's growth."""

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


def merge_equal_weights(q: Sequence[WeightedVertex], stats: SolverStats | None = None) -> TupleList:
    """Coalesce each run of equal weights into one tuple.

    The merged value is the product of the run's values; the weight is
    unchanged. Expects equal weights to be adjacent (a sorted input).
    """
    merged: TupleList = []
    for t in q:
        if merged and merged[-1].weight == t.weight:
            merged[-1] = WeightedVertex(merged[-1].value * t.value, t.weight)
            if stats is not None:
                stats.merges += 1
        else:
            merged.append(t)
    return merged


def partition_by_pivot(
    rest: Sequence[WeightedVertex],
    pivot: WeightedVertex,
    stats: SolverStats | None = None,
) -> tuple[TupleList, TupleList, TupleList]:
    """Split the tuples after the pivot into (left, right, pivot-bound).

    ``rest`` holds the sorted, merged list minus its first element, the
    pivot. Left is the pivot's induced subgraph, right the subgraph where
    the pivot is excluded, and the third list repeats the case-1 members
    of left (vertices confined to the pivot's closed neighborhood).
    """
    left: TupleList = []
    right: TupleList = []
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
            if stats is not None:
                stats.case1_count += 1
        else:
            comb = math.gcd(pivot.weight, reduced)
            if stats is not None:
                stats.gcd_calls += 1
                stats.case2_count += 1
            left.append(WeightedVertex(t.value, comb))
            right.append(WeightedVertex(t.value, reduced))
    return left, right, pivot_bound


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

    Returns the maximal-clique ids as a frozenset, straight from the
    recursion (a list when ``config.as_list`` is set), or the paper's
    literal id list in emission order when ``config.sanitize`` is off.
    Both runs make the same calls, so their stats are equal. Stats are all
    zero when ``config.collect_stats`` is off.
    """
    if config is None:
        config = SolverConfig()
    stats = SolverStats() if config.collect_stats else None
    ids = _enumerate(list(q), config.pivot_order, stats, config.sanitize)
    if stats is None:
        stats = SolverStats()
    if config.sanitize and not config.as_list:
        return frozenset(ids), stats
    return ids, stats


def _enumerate(q: TupleList, order: str, stats: SolverStats | None, maximal: bool) -> list[int]:
    if stats is not None:
        stats.recursive_calls += 1
        for t in q:
            bits = t.weight.bit_length()
            if bits > stats.max_weight_bits:
                stats.max_weight_bits = bits
    q = sort_by_weight(q, order)
    if not q:
        return []
    q = merge_equal_weights(q, stats)
    if len(q) == 1:
        return [q[0].value]
    pivot = q[0]
    if stats is not None:
        stats.pivot_splits += 1
    left, right, pivot_bound = partition_by_pivot(q[1:], pivot, stats)
    if pivot_bound:
        right = eliminate_case1_from_right(right, pivot_bound)
    left_ids = _enumerate(left, order, stats, maximal)
    right_ids = _enumerate(right, order, stats, maximal)
    if maximal:
        # A pivot-free clique inside the pivot's closed neighborhood is
        # extended by the pivot; every other one is maximal here too.
        right_ids = [i for i in right_ids if pivot.weight % i]
    if left:
        cliques = [i * pivot.value for i in left_ids]
    else:
        # An isolated pivot forms its own maximal clique; the recursion on
        # an empty left list would silently lose it.
        cliques = [pivot.value]
    cliques.extend(right_ids)
    return cliques


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
    recursion emits it; raw mode returns the literal ids in emission order,
    non-maximal entries included. Each id is decoded once and checked to be
    a clique (IntegrityError otherwise). Bumps the recursion limit for
    large inputs (depth is bounded by the vertex count).
    """
    if config is None:
        config = SolverConfig()
    needed = g.n + 200
    if needed > sys.getrecursionlimit():
        sys.setrecursionlimit(needed)
    eg = encoding.encode(g, assignment)
    ids, stats = find_cliques(eg.tuples, replace(config, as_list=True))
    if config.sanitize:
        ids = sorted(ids)
    cliques = [frozenset(_decode_clique_checked(i, eg)) for i in ids]
    return cliques, stats

"""Maximal-clique enumeration over the arithmetic encoding, on an explicit stack.

The paper's step sorts a tuple list by weight, merges vertices with equal
weights (equal weight means equal closed neighborhood, so such vertices
belong to exactly the same cliques and coalesce into one tuple whose value
is the product of theirs), and stops when one tuple is left, emitting its
value as a clique id. Otherwise the first tuple becomes the pivot and the
rest split three ways:

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
neighborhood lies inside the pivot's. ``sort_by_weight``,
``merge_equal_weights``, ``partition_by_pivot`` and
``eliminate_case1_from_right`` are that literal step, one pass over the
whole list each, and the reference ``find_cliques`` is tested against.

``find_cliques`` takes the same steps without the passes (in raw mode;
sanitized mode also prunes, as the last paragraph says). A stack entry
holds its tuples indexed three ways: a dict weight -> (value, one vertex
index), where a tuple whose weight is already present merges on insert; a
dict vertex index -> weight for that one vertex; and a heap of weights,
with lazy deletion, that yields the pivot (the largest weight for
``descending``, the smallest for ``ascending``; weights are unique after
merging). A weight only ever loses primes, so it holds none but its
vertices' own and their common input neighbours', and every vertex of a
tuple adjacent to the pivot is an input neighbour of each pivot vertex.
So the divisibility test alone finds those tuples, whether it walks
``EncodedGraph.neighbours`` of one pivot vertex or the entry's vertex
index -> weight dict; a step walks the shorter of the two. The pivot side
is built fresh, its two dicts and its heap filled in the same loop that
takes each adjacent tuple out of the entry and classifies it. The
pivot-free side is the popped entry itself, updated in place: the pivot
and its neighbours leave, and each case-2 copy comes back under its
eliminated weight, merging if that weight is taken. A step costs
O(min(live tuples, deg) + adjacent tuples · log n) instead of
O(remainder). An empty side is counted as an entry but never built.

Where the paper recurses on both sides, each side becomes an entry with
``prefix``, the product of the pivot values whose induced subgraph the
entry lies in (an id found in the entry is emitted times it), and
``common``, the gcd of those vertices' input weights, their common closed
neighborhood (0, the gcd identity, at the root). Only the pivot-free side
is pushed on the explicit stack. The pivot side is processed next, without
a push and a pop, so it is finished before its pivot-free sibling is
popped and ids come out in the order of the paper's recursion. A pivot
whose induced subgraph is empty is emitted as a singleton clique, which
the empty pivot side would otherwise drop. The nesting lives on the stack,
not in interpreter frames, so no recursion limit applies.

An id is the product of pivot values whose vertices the enumeration
knows, so it emits the id with its member list and nothing factors it
later. Each entry carries ``members``, the vertex indices of its
``prefix``; the pivot side's is its parent's plus the pivot's.
``members_of`` maps each merged value to all of its vertex indices; any
other value is the one vertex its tuple names.

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

Sanitized enumeration also prunes whole entries, with Bron and Kerbosch's
excluded set (CACM 1973) cut down to one vertex, the guard, used the way
Tomita, Tanaka and Takahashi (TCS 2006) use their pivot. The first split
of an unguarded entry (the root, or any pivot side) makes the prime of one
pivot vertex the guard of its pivot-free side, which keeps it for every
later split. The guard is adjacent to the entry's whole prefix and is out
of the entry, so a clique from the entry whose vertices are all adjacent
to it is extended by it and is not maximal: every maximal clique the entry
still holds has a tuple whose vertices are not all adjacent to the guard,
a free tuple, ``common_of[value] % guard != 0``. The live weights in a
guarded entry's heap are exactly its free tuples': those present when the
guard is set are the pivot's non-neighbours, hence free, and a case-2
copy is pushed only when it is free or turns a flagged tuple free by
merging with it. A removed weight never comes back to name a flagged
tuple, since it holds the prime of the pivot that removed it, which no
later weight of the entry holds. So pivots are free, the pivot-free chain
walks the guard's non-neighbours in weight order, and an entry whose heap
runs dry holds no maximal clique and is dropped (``SolverStats.pruned``).
Raw mode has no guard: it is the paper's literal step, and its output
includes the non-maximal ids a guard would drop.
"""

import heapq
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
    recursion: the root and both sides of every split, empty or dropped
    ones included, so it is always ``1 + 2 * pivot_splits``. ``gcd_calls``
    is one per case-2 split. ``pruned`` counts the guarded entries dropped
    because every tuple left in them was adjacent to their guard; it is 0
    in raw mode.
    """

    recursive_calls: int = 0
    merges: int = 0
    pivot_splits: int = 0
    case1_count: int = 0
    case2_count: int = 0
    gcd_calls: int = 0
    max_weight_bits: int = 0
    pruned: int = 0


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
    """Divide every case-1 value out of the right-hand weights it divides.

    One gcd with the product of the case-1 values per weight does it: the
    vertices merged into one case-1 value are twins, so a weight holds all
    of their primes or none.
    """
    case1 = math.prod(t.value for t in pivot_bound)
    return [WeightedVertex(t.value, t.weight // math.gcd(t.weight, case1)) for t in right]


def find_cliques(
    eg: EncodedGraph, config: SolverConfig | None = None
) -> tuple[dict[int, tuple[int, ...]], SolverStats]:
    """Enumerate clique ids for an encoded graph, each with its members.

    Returns a dict from each clique id, in emission order, to its members'
    vertex indices (0-based, as in ``eg.neighbours``). With
    ``config.sanitize`` on, the ids are the maximal cliques; with it off,
    they are the paper's literal output, non-maximal ids included. No id is
    emitted twice: of two leaves of the recursion, the one on the pivot
    side of their last split carries that pivot's prime and the other does
    not. Raw, the ids, their order and the stats are those of the literal
    step built from ``sort_by_weight``, ``merge_equal_weights``,
    ``partition_by_pivot`` and ``eliminate_case1_from_right``; a step here
    walks the shorter of the entry's live tuples and the pivot's degree,
    not the whole remainder. Sanitized, the guard (module docstring) picks
    other pivots and drops entries, so the run takes fewer steps on dense
    graphs and its ids, the maximal ones among the raw ids, come in another
    order with other stats. The members of an id form a set: their order in
    its tuple, and which vertex stands for a merged tuple inside the
    enumeration, follow the walk and are not part of the result.
    """
    if config is None:
        config = SolverConfig()
    # Every weight the enumeration forms divides an input weight (partition
    # divides or takes a gcd, elimination divides), so the input is widest.
    stats = SolverStats(max_weight_bits=max((t.weight.bit_length() for t in eg.tuples), default=0))
    common_of = {t.value: t.weight for t in eg.tuples}
    return _enumerate(eg, config.pivot_order, stats, config.sanitize, common_of), stats


def _enumerate(
    eg: EncodedGraph, order: str, stats: SolverStats, maximal: bool, common_of: dict[int, int]
) -> dict[int, tuple[int, ...]]:
    if order not in ("descending", "ascending"):
        raise ValueError(f"unknown order {order!r}")
    # Heap keys are sign * weight, so heap[0] holds the pivot's weight.
    sign = -1 if order == "descending" else 1
    neighbours = eg.neighbours
    # All vertex indices of each merged value.
    members_of: dict[int, tuple[int, ...]] = {}
    # The counters live in locals and reach stats once, at the end.
    merges = splits = adjacent_count = case2 = pruned = 0

    def merge(other: int, kept: int, value: int, index: int) -> int:
        """The product of two values, kept and index being one vertex of
        each, with its common neighbourhood and members recorded."""
        nonlocal merges
        product = other * value
        common_of[product] = math.gcd(common_of[other], common_of[value])
        members_of[product] = members_of.get(other, (kept,)) + members_of.get(value, (index,))
        merges += 1
        return product

    # An entry: weight -> (value, one vertex index), merging equal weights;
    # that vertex index -> weight; and the heap of weights.
    tuples: dict[int, tuple[int, int]] = {}
    weight_of: dict[int, int] = {}
    for index, (value, weight) in enumerate(eg.tuples):
        if weight in tuples:
            other, kept = tuples[weight]
            tuples[weight] = (merge(other, kept, value, index), kept)
        else:
            tuples[weight] = (value, index)
            weight_of[index] = weight
    heap = [sign * weight for weight in tuples]
    heapq.heapify(heap)
    emitted: dict[int, tuple[int, ...]] = {}
    # The last field is the entry's guard (module docstring), 0 until set.
    stack = [(tuples, weight_of, heap, 1, 0, (), 0)] if tuples else []
    while stack:
        tuples, weight_of, heap, prefix, common, members, guard = stack.pop()
        # The popped entry, then each pivot side in turn: a pivot side is
        # processed right after its split, so it never goes on the stack.
        while True:
            while heap:
                pivot_weight = sign * heapq.heappop(heap)
                if pivot_weight in tuples:  # else removed since it was pushed
                    break
            else:
                # Only tuples adjacent to the guard are left: it extends
                # every clique the entry could emit.
                pruned += 1
                break
            pivot_value, pivot_index = tuples.pop(pivot_weight)
            del weight_of[pivot_index]
            inner = math.gcd(common, common_of[pivot_value])
            # The members of prefix * pivot_value: the pivot side's, and the
            # clique's if the pivot is emitted here.
            inner_members = members + members_of.get(pivot_value, (pivot_index,))
            if tuples:
                splits += 1
                # Every vertex of a tuple adjacent to the pivot is an input
                # neighbour of each pivot vertex, and weight_of holds one
                # vertex per live tuple, so either sequence finds each
                # adjacent tuple once under the same test: walk the shorter.
                walk = neighbours[pivot_index]
                if len(weight_of) < len(walk):
                    walk = weight_of
                adjacent = [
                    (v, weight)
                    for v in walk
                    if (weight := weight_of.get(v)) is not None and weight % pivot_value == 0
                ]
                adjacent_count += len(adjacent)
                # The pivot side is built as its tuples leave the entry.
                side: dict[int, tuple[int, int]] = {}
                side_of: dict[int, int] = {}
                side_heap = []
                copies = []
                case1 = 1
                for v, weight in adjacent:
                    value = tuples.pop(weight)[0]
                    del weight_of[v]
                    reduced = weight // pivot_value
                    if pivot_weight % reduced == 0:
                        case1 *= value
                    else:
                        copies.append((value, v, reduced))
                        reduced = math.gcd(pivot_weight, reduced)
                    if reduced in side:
                        other, kept = side[reduced]
                        side[reduced] = (merge(other, kept, value, v), kept)
                    else:
                        side[reduced] = (value, v)
                        side_of[v] = reduced
                        side_heap.append(sign * reduced)
                case2 += len(copies)
                # The popped entry becomes the pivot-free side: the pivot and
                # its neighbours are out, and each case-2 copy comes back under
                # its weight with the case-1 values divided out. Sanitized, the
                # first split of an unguarded entry makes the pivot's vertex
                # its guard, and its heap then holds only the tuples free of it.
                if maximal and not guard:
                    guard = eg.tuples[pivot_index].value
                for value, v, weight in copies:
                    if case1 != 1:
                        weight //= math.gcd(weight, case1)
                    free = not guard or common_of[value] % guard
                    if weight in tuples:
                        other, kept = tuples[weight]
                        tuples[weight] = (merge(other, kept, value, v), kept)
                        # A free tuple is in the heap already; a flagged one
                        # goes in when a free copy joins it.
                        free = guard and free and not common_of[other] % guard
                    else:
                        tuples[weight] = (value, v)
                        weight_of[v] = weight
                    if free:
                        heapq.heappush(heap, sign * weight)
                # The pivot-free side waits on the stack for the whole pivot
                # side, so ids come out in the order of the paper's recursion.
                if tuples:
                    stack.append((tuples, weight_of, heap, prefix, common, members, guard))
                if side:
                    heapq.heapify(side_heap)
                    tuples, weight_of, heap = side, side_of, side_heap
                    prefix *= pivot_value
                    common = inner
                    members = inner_members
                    guard = 0
                    continue
                # An isolated pivot forms its own maximal clique; the empty
                # pivot side would silently lose it.
            clique_id = prefix * pivot_value
            if not maximal or inner == clique_id:
                emitted[clique_id] = inner_members
            break
    # Each split counts both sides as entries, empty or dropped ones
    # included, and the root counts too.
    stats.recursive_calls += 1 + 2 * splits
    stats.merges += merges
    stats.pivot_splits += splits
    stats.case1_count += adjacent_count - case2
    stats.case2_count += case2
    stats.gcd_calls += case2
    stats.pruned += pruned
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


def _decode_clique_checked(clique_id: int, eg: EncodedGraph) -> frozenset[int]:
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
) -> tuple[dict[int, frozenset[int]], SolverStats]:
    """Encode a graph, enumerate, and map each clique id to its vertex set.

    An id is the product of its members' primes under the assignment (the
    default one when none is given). Sanitized mode returns each maximal
    clique once, in id order; raw mode returns the literal ids in emission
    order, non-maximal entries included. Each id comes with the members
    the enumeration recorded, and is accepted in O(k) for k members: their
    primes must multiply to the id, and the id must divide each member's
    weight. An id whose record fails that test can only come from a fault;
    it is decoded again by ``_decode_clique_checked``, which raises
    IntegrityError unless the id is a clique.
    """
    if config is None:
        config = SolverConfig()
    eg = encoding.encode(g, assignment)
    ids, stats = find_cliques(eg, config)
    values = [t.value for t in eg.tuples]
    weights = [t.weight for t in eg.tuples]
    vertex = list(range(1, len(values) + 1)).__getitem__  # index -> vertex id
    cliques = {}
    for clique_id in sorted(ids) if config.sanitize else ids:
        members = ids[clique_id]
        product = 1
        for v in members:
            if weights[v] % clique_id:
                break
            product *= values[v]
        else:
            if product == clique_id:
                cliques[clique_id] = frozenset(map(vertex, members))
                continue
        cliques[clique_id] = _decode_clique_checked(clique_id, eg)
    return cliques, stats

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
They, ``sanitize`` and ``drop_contained_ids`` stay in this module although
the solve path calls none of them: the benchmark's tracer wraps each one
by its name here and reports a layer absent when its function is missing,
and its tests expect only the ``prune`` layer to go missing. So they move
out only once the tracer wraps what the solve path runs.

``find_cliques`` takes the same steps without the passes (in raw mode;
sanitized mode also prunes, as the last paragraph says). Each live tuple
is one immutable record ``(value, members, common)``: ``members`` are its
vertices' ids (1-based, as in DIMACS), and ``common`` is the gcd of those
vertices' input weights, their common closed neighborhood. Merging two
records multiplies their values, joins their members and takes the gcd of
their ``common``.
A tuple's weight changes from entry to entry; its record does not, so a
pivot side holds the very records it takes out of the entry, and a case-2
copy carries its record back to the pivot-free side. A stack entry holds
its tuples indexed three ways: a dict weight -> record, where a tuple whose
weight is already present merges on insert; a dict vertex id -> weight
for ``members[0]``, the tuple's stand-in vertex; and a heap of weights,
with lazy deletion, that yields the pivot (the largest weight; weights are
unique after merging). A weight only ever loses primes, so it holds none
but its vertices' own and their common input neighbours', and every vertex
of a tuple adjacent to the pivot is an input neighbour of each pivot
vertex. So the divisibility test alone finds those tuples, whether it
walks ``EncodedGraph.neighbours`` of one pivot vertex or the entry's
vertex id -> weight dict; a step walks the shorter of the two. The
pivot side is built fresh, its two dicts and its heap filled in the same
loop that takes each adjacent tuple out of the entry and classifies it.
The pivot-free side is the popped entry itself, updated in place: the
pivot and its neighbours leave, and each case-2 copy comes back under its
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
later. Each entry carries ``members``, the vertex ids of its
``prefix``; the pivot side's is its parent's plus the pivot record's.

The paper's literal (raw) output is a list of clique ids in emission
order. It holds every maximal clique but may include non-maximal ones:
pivot-free ids inside the pivot's closed neighborhood. A clique is
maximal exactly when the gcd of its members' input weights equals its
id. One gcd per step, of the entry's ``common`` with the pivot record's,
gives the common neighborhood of ``prefix * pivot.value``.
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
a free tuple, ``common % guard != 0`` in its record. The live weights in a
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
from typing import Iterable, Sequence

from . import encoding
from .encoding import EncodedGraph, Graph, WeightedVertex
from .errors import IntegrityError

__all__ = [
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
# A live tuple of ``find_cliques``: (value, member vertex ids, common).
Record = tuple[int, tuple[int, ...], int]


@dataclass
class SolverStats:
    """Counters probing the enumeration's shape and the encoding's growth.

    ``pruned`` counts the guarded entries dropped because every tuple left
    in them was adjacent to their guard; it is 0 in raw mode.
    """

    merges: int = 0
    pivot_splits: int = 0
    case1_count: int = 0
    case2_count: int = 0
    max_weight_bits: int = 0
    pruned: int = 0

    @property
    def recursive_calls(self) -> int:
        """Stack entries, one per call of the paper's recursion: the root
        and both sides of every split, empty or dropped ones included."""
        return 1 + 2 * self.pivot_splits

    @property
    def gcd_calls(self) -> int:
        """One gcd per case-2 split."""
        return self.case2_count


def sort_by_weight(q: Sequence[WeightedVertex]) -> TupleList:
    """Stable sort by descending weight; equal weights stay in input order, adjacent."""
    return sorted(q, key=lambda t: t.weight, reverse=True)


def merge_equal_weights(q: Sequence[WeightedVertex]) -> TupleList:
    """Coalesce each run of equal weights into one tuple.

    The merged value is the product of the run's values; the weight is
    unchanged. Expects equal weights to be adjacent (a sorted input).
    """
    merged: TupleList = []
    for t in q:
        if merged and merged[-1].weight == t.weight:
            merged[-1] = WeightedVertex(merged[-1].value * t.value, t.weight)
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
    eg: EncodedGraph, *, sanitize: bool = True
) -> tuple[dict[int, tuple[int, ...]], SolverStats]:
    """Enumerate clique ids for an encoded graph, each with its members.

    Returns a dict from each clique id, in emission order, to its members'
    vertex ids (1-based, as in DIMACS and ``eg.neighbours``). With
    ``sanitize`` on, the ids are the maximal cliques; with it off,
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
    # Heap keys are -weight, so heap[0] holds the pivot's weight.
    neighbours = eg.neighbours
    # The counters live in locals and reach SolverStats once, at the end.
    merges = splits = adjacent_count = case2 = pruned = 0

    def merge(kept: Record, other: Record) -> Record:
        """The record of two tuples of equal weight, kept's vertex standing
        for it: the product of their values, all their members and their
        common neighbourhood."""
        nonlocal merges
        merges += 1
        return (kept[0] * other[0], kept[1] + other[1], math.gcd(kept[2], other[2]))

    # An entry: weight -> record, merging equal weights; the record's first
    # member -> weight; and the heap of weights.
    tuples: dict[int, Record] = {}
    weight_of: dict[int, int] = {}
    for vertex, (value, weight) in enumerate(eg.tuples, 1):
        record = (value, (vertex,), weight)
        if weight in tuples:
            tuples[weight] = merge(tuples[weight], record)
        else:
            tuples[weight] = record
            weight_of[vertex] = weight
    heap = [-weight for weight in tuples]
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
                pivot_weight = -heapq.heappop(heap)
                if pivot_weight in tuples:  # else removed since it was pushed
                    break
            else:
                # Only tuples adjacent to the guard are left: it extends
                # every clique the entry could emit.
                pruned += 1
                break
            pivot_value, pivot_members, pivot_common = tuples.pop(pivot_weight)
            pivot_vertex = pivot_members[0]
            del weight_of[pivot_vertex]
            inner = math.gcd(common, pivot_common)
            # The members of prefix * pivot_value: the pivot side's, and the
            # clique's if the pivot is emitted here.
            inner_members = members + pivot_members
            if tuples:
                splits += 1
                # Every vertex of a tuple adjacent to the pivot is an input
                # neighbour of each pivot vertex, and weight_of holds one
                # vertex per live tuple, so either sequence finds each
                # adjacent tuple once under the same test: walk the shorter.
                walk = neighbours[pivot_vertex - 1]
                if len(weight_of) < len(walk):
                    walk = weight_of
                adjacent = [
                    (v, weight)
                    for v in walk
                    if (weight := weight_of.get(v)) is not None and weight % pivot_value == 0
                ]
                adjacent_count += len(adjacent)
                # The pivot side is built as its tuples leave the entry.
                side: dict[int, Record] = {}
                side_of: dict[int, int] = {}
                side_heap = []
                copies = []
                case1 = 1
                for v, weight in adjacent:
                    record = tuples.pop(weight)
                    del weight_of[v]
                    reduced = weight // pivot_value
                    if pivot_weight % reduced == 0:
                        case1 *= record[0]
                    else:
                        copies.append((reduced, record))
                        reduced = math.gcd(pivot_weight, reduced)
                    if reduced in side:
                        side[reduced] = merge(side[reduced], record)
                    else:
                        side[reduced] = record
                        side_of[v] = reduced
                        side_heap.append(-reduced)
                case2 += len(copies)
                # The popped entry becomes the pivot-free side: the pivot and
                # its neighbours are out, and each case-2 copy comes back under
                # its weight with the case-1 values divided out. Sanitized, the
                # first split of an unguarded entry makes the pivot's vertex
                # its guard, and its heap then holds only the tuples free of it.
                if sanitize and not guard:
                    guard = eg.tuples[pivot_vertex - 1].value
                for weight, record in copies:
                    if case1 != 1:
                        weight //= math.gcd(weight, case1)
                    free = not guard or record[2] % guard
                    if weight in tuples:
                        other = tuples[weight]
                        tuples[weight] = merge(other, record)
                        # A free tuple is in the heap already; a flagged one
                        # goes in when a free copy joins it.
                        free = guard and free and not other[2] % guard
                    else:
                        tuples[weight] = record
                        weight_of[record[1][0]] = weight
                    if free:
                        heapq.heappush(heap, -weight)
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
            if not sanitize or inner == clique_id:
                emitted[clique_id] = inner_members
            break
    # Every weight the enumeration forms divides an input weight (partition
    # divides or takes a gcd, elimination divides), so the input is widest.
    max_weight_bits = max((t.weight.bit_length() for t in eg.tuples), default=0)
    return emitted, SolverStats(
        merges=merges,
        pivot_splits=splits,
        case1_count=adjacent_count - case2,
        case2_count=case2,
        max_weight_bits=max_weight_bits,
        pruned=pruned,
    )


def drop_contained_ids(ids: Iterable[int]) -> frozenset[int]:
    """Deduplicate and drop ids whose vertex set is contained in another's.

    For squarefree ids containment is exactly divisibility, so no
    decode is needed. A proper divisor is numerically smaller, which
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

    Every id must decode over the graph's primes to a set of pairwise
    adjacent vertices; otherwise IntegrityError. Duplicates and
    ids contained in another id are dropped. Meant for literal lists:
    sanitized enumeration already emits only maximal ids.
    """
    raw = list(raw)
    for clique_id in raw:
        _decode_clique_checked(clique_id, eg)
    return drop_contained_ids(raw)


def _decode_clique_checked(clique_id: int, eg: EncodedGraph) -> tuple[int, ...]:
    """Decode an id to its vertex ids, ascending, raising IntegrityError
    unless its vertices form a clique.

    The vertices are pairwise adjacent exactly when the id divides the
    weight of each of them.
    """
    members = sorted(encoding.decode_clique(clique_id, eg.assignment))
    tuples = eg.tuples
    if any(tuples[v - 1].weight % clique_id for v in members):
        # Name the first non-adjacent pair (a, b), a < b.
        a = min(v for v in members if tuples[v - 1].weight % clique_id)
        b = min(v for v in members if tuples[a - 1].weight % tuples[v - 1].value)
        raise IntegrityError(
            f"id {clique_id} decodes to a non-clique: "
            f"vertices {a} and {b} are not adjacent"
        )
    return tuple(members)


def solve_graph(
    g: Graph, *, sanitize: bool = True
) -> tuple[dict[int, tuple[int, ...]], SolverStats]:
    """Encode a graph, enumerate, and map each clique id to its vertex ids.

    An id is the product of its members' primes, vertex k's being the k-th
    prime. Sanitized mode returns each maximal clique once; raw mode returns
    the literal ids, non-maximal entries included. Both come in emission
    order, each id with the tuple of vertex ids the enumeration recorded, in
    the order it recorded them. An id is accepted in O(k) for k members:
    each must be a vertex id 1..n, their primes must multiply to the id, and
    the id must divide each member's weight. An id whose record fails that
    test can only come from a fault; it is decoded again by
    ``_decode_clique_checked``, which raises IntegrityError unless the id is
    a clique.
    """
    eg = encoding.encode(g)
    cliques, stats = find_cliques(eg, sanitize=sanitize)
    n = g.n
    # Indexed by vertex id; a member outside 1..n fails the record test.
    values = [0, *(t.value for t in eg.tuples)]
    weights = [0, *(t.weight for t in eg.tuples)]
    for clique_id, members in cliques.items():
        product = 1
        for v in members:
            if not 0 < v <= n or weights[v] % clique_id:
                break
            product *= values[v]
        else:
            if product == clique_id:
                continue
        cliques[clique_id] = _decode_clique_checked(clique_id, eg)
    return cliques, stats

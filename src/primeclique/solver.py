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
sanitized mode also prunes, peels and folds, as the last three paragraphs
say).
Each live tuple is one immutable record ``(value, members, common)``:
``members`` are its vertices' ids (1-based, as in DIMACS), and ``common``
is the gcd of those vertices' input weights, their common closed
neighborhood. Merging two records multiplies their values, joins their
members and takes the gcd of their ``common``.
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
loop that takes each adjacent tuple out of the entry and classifies it
with one gcd: that of its reduced weight and the pivot's is the reduced
weight itself in case 1 and its pivot-side weight in case 2. The
pivot-free side is the popped entry itself, updated in place: the pivot
and its neighbours leave, and each case-2 copy comes back under its
eliminated weight in the vertex id -> weight slot it kept, or merges into
the tuple of that weight and gives the slot up. A step costs
O(min(live tuples, deg) + adjacent tuples · log n) instead of
O(remainder). An empty side is counted as an entry but never built or
pushed. When the pivot has no live neighbour, the step builds nothing:
its pivot-free side is the rest of the entry and goes on in place.

Where the paper recurses on both sides, each side becomes an entry with
``prefix``, the product of the pivot values whose induced subgraph the
entry lies in (an id found in the entry is emitted times it), and
``common``, the gcd of those vertices' input weights, their common closed
neighborhood (0, the gcd identity, at the root). Only the pivot-free side
is pushed on the explicit stack. The pivot side is processed next, without
a push and a pop, so it is finished before its pivot-free sibling is
popped and ids come out in the order of the paper's recursion. A pivot
whose induced subgraph is empty is emitted with its entry's prefix, which
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
emits every maximal clique exactly once. The members form a clique exactly
when the id divides that gcd, so raw mode checks each id with one ``%``
and sends a failure, only a fault's, to the raising checked decode.
``sanitize`` stays the integrity check and prune for literal lists.

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

Before the step, sanitized enumeration peels the low-degree fringe, in the
smallest-last spirit of Matula and Beck (JACM 1983). A worklist takes every
vertex with at most 2 unpeeled neighbours: first those of input degree 2 or
less, by id, then each vertex whose count of unpeeled neighbours falls to
2. A count only falls, so the peel cascades down paths and trees. A peeled
vertex v settles the cliques of v and its unpeeled neighbours that hold v,
in closed form. With u and x its first and second unpeeled neighbours in
its neighbour list, they are among {v}, {v, u}, {v, x} and {v, u, x}. Each
is emitted, in that order, iff the gcd of its members' input weights
equals its id, the step's emission test: ``w_v == p_v`` for {v}, which
holds only when v has no neighbour, ``gcd(w_v, w_u) == p_v * p_u`` for {v, u},
and ``gcd(gcd(w_v, w_u), w_x)`` against ``p_v * p_u * p_x`` for {v, u, x},
tried only when ``p_x`` divides ``gcd(w_v, w_u)``. Such a clique holds v
and otherwise only vertices peeled after v or never, so a maximal clique
that holds a peeled vertex is settled by its first-peeled member alone,
and is emitted exactly once.
The root entry then holds only the unpeeled vertices, the 3-core, with
their input weights untouched. A peeled vertex stays a prime in its core
neighbours' weights, not a tuple. It extends a core clique exactly when its
prime divides the clique's common neighbourhood, so the emission test
rejects that clique. The prime is no tuple's value, so it changes no
adjacency test; equal weights still mean twins; and it can only turn a
case-1 tuple into case 2, which is copied to both sides and so is always
sound.

The step merges true twins, vertices of one closed neighbourhood; sanitized
enumeration also folds false twins, vertices of one open neighbourhood,
``weight // value``, such as the parts of a complete multipartite graph
(Moon and Moser, Israel J. Math. 1965, whose 3^{n/3} maximal cliques are
the most an n-vertex graph has). The root entry takes only the first
unpeeled vertex of each class, its representative r; the others stay
primes in their neighbours' weights, as peeled vertices do
(``SolverStats.folded`` counts them). Where the step emits a clique, it
emits the clique's expansions over its members' classes with it, a member
with no left-out twin a class of its own: every choice of one vertex from
each member's class, that vertex in the member's place, its id the product
of the chosen vertices' primes. That is exact:

* no clique holds two vertices of a class, since p_u divides v's open
  product exactly when u ~ v, so equal open products mean non-adjacent;
* a representative r with a twin t has no true twin s: s would be a
  neighbour of r, hence of t, and t in N[s] = N[r] would be adjacent to r.
  So r is a tuple of its own at the root, and a later merge keeps it among
  its tuple's members, where the expansion finds it;
* swapping two false twins is an automorphism of the graph, so each
  expansion of a maximal clique is maximal, and a maximal clique of
  unpeeled vertices, its twins swapped for their representatives, is a
  maximal clique the step emits;
* a left-out twin t extends a clique K of the entry only when
  K ⊆ N(t) = N(r): with r in K it cannot, as t is not adjacent to r, and
  without r, r extends K too, so the emission test's verdict is the same
  with t in the entry or out of it;
* no expansion is emitted twice or collides with another emitted id: a
  base clique holds no left-out twin and each expansion holds at least
  one, and two expansions differ in some class member.

The peel's cliques are not expanded: a peeled vertex adjacent to r is
adjacent to r's twins too, and settles its cliques with each of them
itself.

Sanitized ids come out in this order: the peel's cliques first, in worklist
order, then the core's, in the order of the paper's recursion, each clique
the step emits followed at once by its expansions. Those come in product
order, the order of ``itertools.product`` over the members' classes in
member order, each class its representative first and then its left-out
twins by id: the step's clique itself first, and the last member's class
varying fastest. For Moon–Moser 2, whose parts {1, 2, 3} and {4, 5, 6} fold
into 1 and 4, the step's {1, 4} is followed by {1, 5}, {1, 6}, {2, 4},
{2, 5}, and so on to {3, 6}. Raw mode neither peels nor folds: it stays the
paper's literal step, ids, order and stats.
"""

import heapq
import math
from dataclasses import dataclass
from itertools import compress, islice, product
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
    in them was adjacent to their guard, ``peeled`` the vertices settled
    before the step, with at most 2 unpeeled neighbours each, and
    ``folded`` the unpeeled vertices left out of the root as false twins of
    a representative, the sum over classes of their size less one; all
    three are 0 in raw mode.
    """

    merges: int = 0
    pivot_splits: int = 0
    case1_count: int = 0
    case2_count: int = 0
    max_weight_bits: int = 0
    pruned: int = 0
    peeled: int = 0
    folded: int = 0

    @property
    def recursive_calls(self) -> int:
        """Stack entries, one per call of the paper's recursion: the root
        and both sides of every split, empty or dropped ones included. The
        root counts even when the peel settles the whole graph and no root
        entry is built, so such a graph reads 1."""
        return 1 + 2 * self.pivot_splits

    @property
    def gcd_calls(self) -> int:
        """The case-2 restrictions of the paper's step, one per case-2
        tuple; not a count of ``math.gcd`` calls."""
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


def _merge(kept: Record, other: Record) -> Record:
    """The record of two tuples of equal weight, kept's vertex standing for
    it: the product of their values, all their members and their common
    neighbourhood."""
    return (kept[0] * other[0], kept[1] + other[1], math.gcd(kept[2], other[2]))


def _peel(eg: EncodedGraph, unpeeled: bytearray, emitted: dict[int, tuple[int, ...]]) -> int:
    """Peel the low-degree fringe (module docstring): clear each peeled
    vertex's flag in ``unpeeled``, emit the maximal cliques it is the
    first-peeled member of into ``emitted``, in worklist order, and return
    how many vertices peeled."""
    neighbours, values, weights = eg.neighbours, eg.values, eg.weights
    gcd = math.gcd
    remaining = list(map(len, neighbours))
    peel = [v for v, degree in enumerate(remaining) if degree <= 2]
    del peel[0]  # slot 0, no vertex, always first: its list is empty
    for v in peel:
        unpeeled[v] = 0
        # u and x: v's first and second unpeeled neighbours, 0 where absent.
        u = x = 0
        for t in neighbours[v]:
            if not unpeeled[t]:
                continue
            if u:
                x = t
            else:
                u = t
            remaining[t] -= 1
            if remaining[t] == 2:
                peel.append(t)
        p_v, w_v = values[v], weights[v]
        if w_v == p_v:
            # No neighbour's prime in v's weight: {v} is its only clique.
            emitted[p_v] = (v,)
        elif u:
            p_u = values[u]
            g_u = gcd(w_v, weights[u])
            if g_u == p_v * p_u:
                emitted[g_u] = (v, u)
            if x:
                p_x, w_x = values[x], weights[x]
                g_x = gcd(w_v, w_x)
                if g_x == p_v * p_x:
                    emitted[g_x] = (v, x)
                if not g_u % p_x:
                    g_ux = gcd(g_u, w_x)
                    if g_ux == p_v * p_u * p_x:
                        emitted[g_ux] = (v, u, x)
    return len(peel)


def _expanded_ids(classes: Iterable[tuple[int, ...]]) -> list[int]:
    """The product of each choice of one prime per class, in the order of
    ``itertools.product`` over the classes: running products, one class at
    a time, so each id costs under two multiplies where classes hold two
    primes or more, not one per member."""
    ids = [1]
    for primes in classes:
        ids = [i * p for i in ids for p in primes]
    return ids


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
    not the whole remainder. Sanitized, the peel settles the vertices of at
    most 2 unpeeled neighbours first, the root holds one representative per
    class of false twins, and the guard picks other pivots and drops
    entries (module docstring, which also states the sanitized emission
    order). So the run takes fewer steps on sparse, dense and multipartite
    graphs, and its ids, the maximal ones among the raw ids, come in
    another order with other stats. The members of an id form a set: their
    order in its tuple, and which vertex stands for a merged tuple inside
    the enumeration, follow the walk and are not part of the result. A raw
    id whose members' common neighbourhood it does not divide is no clique,
    which only a fault in ``eg`` makes: it raises IntegrityError.
    """
    # Heap keys are -weight, so heap[0] holds the pivot's weight.
    neighbours, values, weights = eg.neighbours, eg.values, eg.weights
    gcd, heappop, heappush = math.gcd, heapq.heappop, heapq.heappush
    # The counters live in locals and reach SolverStats once, at the end.
    merges = splits = adjacent_count = case2 = pruned = 0
    emitted: dict[int, tuple[int, ...]] = {}
    # Slot 0 is no vertex: it starts peeled, out of the peel and the root.
    unpeeled = bytearray(b"\1") * len(values)
    unpeeled[0] = 0
    peeled = _peel(eg, unpeeled, emitted) if sanitize else 0

    # An entry: weight -> record, merging equal weights; the record's first
    # member -> weight; and the heap of weights. The root holds the
    # unpeeled vertices, which compress picks out without a step per peeled
    # one; sanitized, only the first of each class of false twins, keyed by
    # its open neighbourhood, weight // value.
    tuples: dict[int, Record] = {}
    weight_of: dict[int, int] = {}
    first: dict[int, int] = {}
    twins: dict[int, list[int]] = {}
    for vertex, value, weight in compress(zip(range(len(values)), values, weights), unpeeled):
        if sanitize:
            representative = first.setdefault(weight // value, vertex)
            if representative != vertex:
                twins.setdefault(representative, []).append(vertex)
                continue
        record = (value, (vertex,), weight)
        if weight in tuples:
            tuples[weight] = _merge(tuples[weight], record)
            merges += 1
        else:
            tuples[weight] = record
            weight_of[vertex] = weight
    if twins:
        # Per vertex id, its class's members and their primes, representative
        # first: (v,) and (p_v,) for a vertex that represents no class.
        members_of = list(zip(range(len(values))))
        primes_of = list(zip(values))
        for r, left_out in twins.items():
            members_of[r] += tuple(left_out)
            primes_of[r] += tuple(map(values.__getitem__, left_out))
    heap = [-weight for weight in tuples]
    heapq.heapify(heap)
    # The last field is the entry's guard (module docstring), 0 until set.
    stack = [(tuples, weight_of, heap, 1, 0, (), 0)] if tuples else []
    while stack:
        tuples, weight_of, heap, prefix, common, members, guard = stack.pop()
        # The popped entry, then each pivot side in turn: a pivot side is
        # processed right after its split, so it never goes on the stack.
        while True:
            while heap:
                pivot_weight = -heappop(heap)
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
            inner = gcd(common, pivot_common)
            adjacent = ()
            if tuples:
                splits += 1
                # Sanitized, the first split of an unguarded entry makes the
                # pivot's vertex its guard: the heap then holds only free tuples.
                if sanitize and not guard:
                    guard = values[pivot_vertex]
                # Every vertex of a tuple adjacent to the pivot is an input
                # neighbour of each pivot vertex, and weight_of holds one
                # vertex per live tuple, so either sequence finds each
                # adjacent tuple once under the same test: walk the shorter.
                # Plain loops, not comprehensions: before Python 3.12 a name a
                # comprehension reads is a cell of the whole function, slower
                # to reach in every step.
                walk = neighbours[pivot_vertex]
                adjacent = []
                if len(weight_of) < len(walk):
                    for v, weight in weight_of.items():
                        if not weight % pivot_value:
                            adjacent.append((v, weight))
                else:
                    for v in walk:
                        weight = weight_of.get(v)
                        if weight and not weight % pivot_value:
                            adjacent.append((v, weight))
            if adjacent:
                adjacent_count += len(adjacent)
                # The pivot side is built as its tuples leave the entry; a
                # tuple is case 1 when its reduced weight divides the pivot's.
                side: dict[int, Record] = {}
                side_of: dict[int, int] = {}
                side_heap = []
                copies = []
                case1 = 1
                for v, weight in adjacent:
                    record = tuples.pop(weight)
                    reduced = weight // pivot_value
                    inside = gcd(pivot_weight, reduced)
                    if inside == reduced:
                        case1 *= record[0]
                        del weight_of[v]
                    else:
                        copies.append((v, reduced, record))
                    if inside in side:
                        side[inside] = _merge(side[inside], record)
                        merges += 1
                    else:
                        side[inside] = record
                        side_of[v] = inside
                        side_heap.append(-inside)
                case2 += len(copies)
                # The popped entry becomes the pivot-free side: the pivot and
                # its neighbours are out, and each case-2 copy comes back under
                # its weight with the case-1 values divided out, in the
                # weight_of slot it kept unless it merges.
                for v, weight, record in copies:
                    if case1 != 1:
                        weight //= gcd(weight, case1)
                    free = not guard or record[2] % guard
                    if weight in tuples:
                        other = tuples[weight]
                        tuples[weight] = _merge(other, record)
                        merges += 1
                        del weight_of[v]
                        # A free tuple is in the heap already; a flagged one
                        # goes in when a free copy joins it.
                        free = guard and free and not other[2] % guard
                    else:
                        tuples[weight] = record
                        weight_of[v] = weight
                    if free:
                        heappush(heap, -weight)
                # The pivot-free side waits on the stack for the whole pivot
                # side, so ids come out in the order of the paper's recursion.
                if tuples:
                    stack.append((tuples, weight_of, heap, prefix, common, members, guard))
                heapq.heapify(side_heap)
                tuples, weight_of, heap = side, side_of, side_heap
                prefix *= pivot_value
                common = inner
                members += pivot_members
                guard = 0
                continue
            # The pivot side is empty, so the pivot forms its own clique here,
            # which the empty side would silently lose. The pivot-free side
            # is the rest of this entry, unchanged: it goes on in place.
            # Equal to inner means maximal; dividing it means a clique.
            clique_id = prefix * pivot_value
            if inner == clique_id:
                clique = members + pivot_members
                if twins:
                    # The clique, then its expansions over its members'
                    # classes, in product order (module docstring).
                    emitted.update(
                        zip(
                            _expanded_ids(map(primes_of.__getitem__, clique)),
                            product(*map(members_of.__getitem__, clique)),
                        )
                    )
                else:
                    emitted[clique_id] = clique
            elif not sanitize:
                emitted[clique_id] = (
                    members + pivot_members
                    if not inner % clique_id
                    else _decode_clique_checked(clique_id, eg)
                )
            if not tuples:
                break
    # Every weight the enumeration forms divides an input weight (partition
    # divides or takes a gcd, elimination divides), so the input is widest.
    max_weight_bits = max(islice(weights, 1, None), default=0).bit_length()
    return emitted, SolverStats(
        merges=merges,
        pivot_splits=splits,
        case1_count=adjacent_count - case2,
        case2_count=case2,
        max_weight_bits=max_weight_bits,
        pruned=pruned,
        peeled=peeled,
        folded=sum(map(len, twins.values())),
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
    values, weights = eg.values, eg.weights
    if any(weights[v] % clique_id for v in members):
        # Name a non-adjacent pair, the smaller vertex first; on a symmetric
        # encoding it is the first such pair (a, b), a < b.
        a = min(v for v in members if weights[v] % clique_id)
        b = min(v for v in members if weights[a] % values[v])
        a, b = sorted((a, b))
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
    the order it recorded them; the module docstring states the sanitized
    order. The clique check runs at each emission in ``find_cliques``, on
    the gcd it carries, not as a pass over the members. So it is not
    independent: a bug in how ids, members or that gcd are carried could
    fool it. The tests check every record against the encoding, and
    Bron–Kerbosch and the literal reference stay the oracle.
    """
    return find_cliques(encoding.encode(g), sanitize=sanitize)

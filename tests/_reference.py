"""The paper's literal enumeration step, the reference for ``solver.find_cliques``,
and the plain adjacency, clique and maximality tests and the graph decoder
the suite checks with.

Each popped entry sorts its whole tuple list, merges equal weights and
partitions the rest around the first tuple with the solver's list helpers,
so a step costs O(remainder). ``find_cliques`` in raw mode takes the same
steps through the pivot's neighbour list and must give the same ids, in the
same order, with the same ``SolverStats``; it also records each id's
members, which this reference leaves to be decoded. Sanitized mode prunes
the recursion, so it is checked against ``sanitize`` of this output instead.
``assert_records_hold`` checks each recorded member list against the
encoding, a check the solver does not run.
"""

import math
from typing import Mapping, Sequence

from primeclique.encoding import EncodedGraph, Graph, WeightedVertex
from primeclique.errors import IntegrityError
from primeclique.primes import first_n_primes
from primeclique.solver import (
    SolverStats,
    merge_equal_weights,
    partition_by_pivot,
    sort_by_weight,
)


def reference_find_cliques(q: Sequence[WeightedVertex]) -> tuple[list[int], SolverStats]:
    """Raw ``find_cliques``' ids in emission order, one sort, merge and partition per step."""
    stats = SolverStats(max_weight_bits=max((t.weight.bit_length() for t in q), default=0))
    emitted: list[int] = []
    stack = [(q, 1)]
    while stack:
        q, prefix = stack.pop()
        q = sort_by_weight(q)
        if not q:
            continue
        n = len(q)
        q = merge_equal_weights(q)
        stats.merges += n - len(q)
        pivot = q[0]
        if len(q) > 1:
            stats.pivot_splits += 1
            left, right, pivot_bound = partition_by_pivot(q[1:], pivot)
            stats.case1_count += len(pivot_bound)
            stats.case2_count += len(left) - len(pivot_bound)
            # Pushed first, so popped after the whole pivot side.
            stack.append((right, prefix))
            stack.append((left, prefix * pivot.value))
            if left:
                continue
            # An isolated pivot forms its own maximal clique; the empty
            # pivot side would silently lose it.
        emitted.append(prefix * pivot.value)
    return emitted, stats


def assert_records_hold(cliques: Mapping[int, Sequence[int]], eg: EncodedGraph) -> None:
    """Assert that each id's recorded members are distinct vertex ids 1..n,
    that their k-th primes multiply to the id, and that the id divides each
    member's input weight, so the members are pairwise adjacent."""
    tuples = eg.tuples
    n = len(tuples)
    primes = first_n_primes(n)
    for clique_id, members in cliques.items():
        assert len(set(members)) == len(members), f"id {clique_id}: repeated member in {members}"
        assert all(1 <= v <= n for v in members), f"id {clique_id}: {members} names no vertex"
        assert math.prod(primes[v - 1] for v in members) == clique_id, (
            f"id {clique_id}: the primes of {members} multiply to another id"
        )
        assert not any(tuples[v - 1].weight % clique_id for v in members), (
            f"id {clique_id}: not every member of {members} is adjacent to the rest"
        )


def has_edge(eg: EncodedGraph, i: int, j: int) -> bool:
    """True iff i != j and the prime of i divides the weight of j.

    On any valid encoding this is symmetric in i and j; the self test is
    needed because every value divides its own weight.
    """
    if i == j:
        return False
    return eg.tuples[j - 1].weight % eg.tuples[i - 1].value == 0


def is_clique(g: Graph, s: set[int]) -> bool:
    """True iff every pair in s is an edge of g."""
    members = sorted(s)
    for v in members:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} not in graph of size {g.n}")
    return all(
        (members[i], members[j]) in g.edges
        for i in range(len(members))
        for j in range(i + 1, len(members))
    )


def is_maximal(g: Graph, s: set[int]) -> bool:
    """True iff the clique s cannot be extended by any outside vertex."""
    if not is_clique(g, s):
        raise ValueError(f"{sorted(s)} is not a clique")
    adj = g.adjacency()
    return not any(s <= adj[v] for v in g.vertices() if v not in s)


def decode_graph(eg: EncodedGraph) -> Graph:
    """Reconstruct the graph from an encoding; inverse of encode().

    Raises IntegrityError when the weights are mutually inconsistent:
    a value missing from its own weight, or divisibility holding in only
    one direction between a pair of vertices.
    """
    tuples = eg.tuples
    n = len(tuples)
    edges = set()
    for i in range(1, n + 1):
        value, weight = tuples[i - 1]
        if weight % value:
            raise IntegrityError(f"vertex {i}: value does not divide its own weight")
        for j in range(i + 1, n + 1):
            ij = tuples[j - 1].weight % value == 0  # the prime of i divides j's weight
            ji = weight % tuples[j - 1].value == 0
            if ij != ji:
                raise IntegrityError(
                    f"asymmetric adjacency between vertices {i} and {j}"
                )
            if ij:
                edges.add((i, j))
    return Graph(n, frozenset(edges))

"""The paper's literal enumeration step, the reference for ``solver.find_cliques``.

Each popped entry sorts its whole tuple list, merges equal weights and
partitions the rest around the first tuple with the solver's list helpers,
so a step costs O(remainder). ``find_cliques`` in raw mode takes the same
steps through the pivot's neighbour list and must give the same ids, in the
same order, with the same ``SolverStats``; it also records each id's
members, which this reference leaves to be decoded. Sanitized mode prunes
the recursion, so it is checked against ``sanitize`` of this output instead.
"""

from typing import Sequence

from primeclique.encoding import WeightedVertex
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

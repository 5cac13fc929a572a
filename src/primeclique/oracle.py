"""Independent ground truth: Bron-Kerbosch enumeration and differencing.

This module never touches the arithmetic encoding; it works on plain
vertex sets so it can serve as the reference the encoded solver is
checked against. Correctness over speed throughout.
"""

from dataclasses import dataclass

from .encoding import Graph

__all__ = ["bron_kerbosch", "diff", "DiffReport"]


def bron_kerbosch(g: Graph) -> list[frozenset[int]]:
    """All maximal cliques of g, as frozensets in a canonical sorted order.

    Classic pivoting, on an explicit stack, not recursion: at each node a
    pivot u is chosen from candidates + excluded with the most neighbors
    among the candidates, and only candidates outside N(u) are branched
    on. Pivot choice is tie-broken by vertex id, so output is deterministic.
    """
    adj = g.adjacency()
    found: list[frozenset[int]] = []
    stack = [(frozenset(), set(g.vertices()), set())] if g.n > 0 else []
    while stack:
        grown, candidates, excluded = stack.pop()
        if not candidates and not excluded:
            found.append(grown)
            continue
        pivot = max(
            sorted(candidates | excluded),
            key=lambda u: len(candidates & adj[u]),
        )
        for v in sorted(candidates - adj[pivot]):
            stack.append((grown | {v}, candidates & adj[v], excluded & adj[v]))
            candidates.remove(v)
            excluded.add(v)
    return sorted(found, key=sorted)


@dataclass(frozen=True)
class DiffReport:
    """Two-way difference between solver output and oracle output."""

    missing: frozenset[frozenset[int]]
    extra: frozenset[frozenset[int]]
    matched: int

    @property
    def equal(self) -> bool:
        return not self.missing and not self.extra


def diff(solver_out, oracle_out) -> DiffReport:
    """Compare clique collections: missing = oracle only, extra = solver only."""
    solver_set = {frozenset(c) for c in solver_out}
    oracle_set = {frozenset(c) for c in oracle_out}
    return DiffReport(
        missing=frozenset(oracle_set - solver_set),
        extra=frozenset(solver_set - oracle_set),
        matched=len(solver_set & oracle_set),
    )

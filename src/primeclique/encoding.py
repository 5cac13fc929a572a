"""Arithmetic graph representation.

Each vertex of a simple undirected graph is assigned a distinct prime, its
*value*. A vertex's *weight* is the product of the values over its closed
neighborhood (the vertex itself plus its neighbors). Adjacency then becomes
divisibility (the prime of i divides the weight of j), common neighborhoods
become gcds, and any clique is identified by the product of its vertex
primes, uniquely by the fundamental theorem of arithmetic.

Vertex ids are 1-based and contiguous, following the DIMACS convention.
"""

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import IntegrityError
from .primes import factor_over_basis, first_n_primes, is_prime

__all__ = [
    "Graph",
    "PrimeAssignment",
    "WeightedVertex",
    "EncodedGraph",
    "encode",
    "has_edge",
    "decode_clique",
    "decode_graph",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: n vertices (ids 1..n), normalized edge set."""

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        n = self.n
        for u, v in self.edges:
            if not (1 <= u < v <= n):
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                if not (1 <= u <= n and 1 <= v <= n):
                    raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from unordered pairs; duplicates collapse silently."""
        return cls(n, frozenset((u, v) if u < v else (v, u) for u, v in pairs))

    def adjacency(self) -> dict[int, set[int]]:
        """Open neighborhoods as a dict vertex -> set of neighbors."""
        adj: dict[int, set[int]] = {u: set() for u in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def vertices(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class PrimeAssignment:
    """Bijection between vertex ids 1..n and distinct primes.

    ``primes[k - 1]`` is the prime of vertex k. The default assignment
    gives vertex k the k-th prime, so clique ids are reproducible across
    runs.
    """

    primes: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("assignment primes must be distinct")
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    @classmethod
    def default(cls, n: int) -> "PrimeAssignment":
        return cls(tuple(first_n_primes(n)))

    @property
    def n(self) -> int:
        return len(self.primes)

    def prime_of(self, vertex: int) -> int:
        return self.primes[vertex - 1]


class WeightedVertex(NamedTuple):
    """A vertex value and its closed-neighborhood weight.

    Fresh encodings carry a single prime as the value; the solver's merge
    step may replace it with a squarefree product of several vertex primes.
    The value always divides the weight.
    """

    value: int
    weight: int


@dataclass(frozen=True)
class EncodedGraph:
    """One WeightedVertex per vertex (index k-1 <-> vertex k) plus the assignment."""

    tuples: tuple[WeightedVertex, ...]
    assignment: PrimeAssignment


def encode(g: Graph, assignment: PrimeAssignment | None = None) -> EncodedGraph:
    """Encode a graph: vertex k gets value = its prime, weight = product over N[k]."""
    if assignment is None:
        assignment = PrimeAssignment.default(g.n)
    if assignment.n < g.n:
        raise ValueError(
            f"assignment covers {assignment.n} vertices, graph has {g.n}"
        )
    adj = g.adjacency()
    tuples = []
    for u in g.vertices():
        weight = assignment.prime_of(u)
        for v in adj[u]:
            weight *= assignment.prime_of(v)
        tuples.append(WeightedVertex(assignment.prime_of(u), weight))
    return EncodedGraph(tuple(tuples), assignment)


def has_edge(eg: EncodedGraph, i: int, j: int) -> bool:
    """True iff i != j and the prime of i divides the weight of j.

    On any valid encoding this is symmetric in i and j; the self test is
    needed because every value divides its own weight.
    """
    if i == j:
        return False
    return eg.tuples[j - 1].weight % eg.tuples[i - 1].value == 0


def decode_clique(clique_id: int, assignment: PrimeAssignment) -> set[int]:
    """The unique vertex set whose prime product equals the id.

    Raises IntegrityError for a malformed id (residue outside the basis).
    """
    try:
        indices = factor_over_basis(clique_id, assignment.primes)
    except ValueError as exc:
        raise IntegrityError(f"malformed clique id {clique_id}: {exc}") from exc
    return {i + 1 for i in indices}


def decode_graph(eg: EncodedGraph) -> Graph:
    """Reconstruct the graph from an encoding; inverse of encode().

    Raises IntegrityError when the weights are mutually inconsistent:
    a value missing from its own weight, or divisibility holding in only
    one direction between a pair of vertices.
    """
    n = len(eg.tuples)
    edges = set()
    for i in range(1, n + 1):
        if eg.tuples[i - 1].weight % eg.tuples[i - 1].value:
            raise IntegrityError(f"vertex {i}: value does not divide its own weight")
        for j in range(i + 1, n + 1):
            ij = has_edge(eg, i, j)
            ji = has_edge(eg, j, i)
            if ij != ji:
                raise IntegrityError(
                    f"asymmetric adjacency between vertices {i} and {j}"
                )
            if ij:
                edges.add((i, j))
    return Graph(n, frozenset(edges))

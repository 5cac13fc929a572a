"""Arithmetic graph representation: encoding a graph and decoding clique ids.

Vertex k of a simple undirected graph is assigned the k-th prime, its
*value*. A vertex's *weight* is the product of the values over its closed
neighborhood (the vertex itself plus its neighbors). Adjacency then becomes
divisibility (the prime of i divides the weight of j), common neighborhoods
become gcds, and any clique is identified by the product of its vertex
primes, uniquely by the fundamental theorem of arithmetic.

Vertex ids are 1-based and contiguous, following the DIMACS convention.
"""

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, NamedTuple

from .errors import IntegrityError
from .primes import _first_primes

__all__ = [
    "Graph",
    "PrimeAssignment",
    "WeightedVertex",
    "EncodedGraph",
    "encode",
    "decode_clique",
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
    """The primes of vertex ids 1..n: ``primes[k - 1]``, the k-th prime, is
    the prime of vertex k, so clique ids are reproducible across runs.

    ``default`` takes it from the sieve's table, which the process keeps
    (``primes`` module); like ``EncodedGraph``, one built by hand is not
    checked.
    """

    primes: tuple[int, ...]

    @classmethod
    def default(cls, n: int) -> "PrimeAssignment":
        return cls(_first_primes(n))


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
    """One WeightedVertex per vertex (index k-1 <-> vertex k), their n primes,
    and each vertex's open neighbourhood: ``neighbours[k - 1]`` lists vertex
    k's neighbours as vertex ids.

    The lists let the solver reach a vertex's neighbours without a scan.
    ``encode`` builds it; one built by hand is not checked.
    """

    tuples: tuple[WeightedVertex, ...]
    assignment: PrimeAssignment
    neighbours: tuple[list[int], ...]


def encode(g: Graph) -> EncodedGraph:
    """Encode a graph: vertex k gets value = the k-th prime, weight = product over N[k].

    The same pass over the edges fills the neighbour lists, each in the
    order of ``g.edges``. Its tables are indexed by vertex id, with a slot 0
    that is dropped after, so the pass does no index arithmetic.
    """
    assignment = PrimeAssignment.default(g.n)
    primes = assignment.primes
    value = (1, *primes)
    weights = list(value)
    neighbours: list[list[int]] = [[] for _ in value]
    for u, v in g.edges:
        weights[u] *= value[v]
        weights[v] *= value[u]
        neighbours[u].append(v)
        neighbours[v].append(u)
    del weights[0], neighbours[0]
    # tuple.__new__ builds each WeightedVertex from its pair without the
    # Python-level __new__ that NamedTuple gives the class.
    tuples = tuple(map(tuple.__new__, repeat(WeightedVertex), zip(primes, weights)))
    return EncodedGraph(tuples, assignment, tuple(neighbours))


def decode_clique(clique_id: int, assignment: PrimeAssignment) -> frozenset[int]:
    """The unique vertex set whose prime product equals the id, by trial
    division over the assignment's primes, O(n) per id.

    Raises IntegrityError for a malformed id: one below 1, or one with a
    residue no prime of the assignment divides out (a repeated prime or one
    outside the assignment).
    """
    if clique_id < 1:
        raise IntegrityError(
            f"malformed clique id {clique_id}: value must be >= 1, got {clique_id}"
        )
    residue = clique_id
    members = set()
    for vertex, p in enumerate(assignment.primes, 1):
        if residue == 1:
            break
        if residue % p == 0:
            members.add(vertex)
            residue //= p
    if residue != 1:
        raise IntegrityError(
            f"malformed clique id {clique_id}: "
            f"residue {residue} is not 1: value has divisors outside the basis"
        )
    return frozenset(members)

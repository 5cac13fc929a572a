"""Maximal clique enumeration over a prime-number graph encoding.

Vertices are identified with distinct primes; neighborhoods become
squarefree products, adjacency becomes divisibility, and each clique is
named by the product of its members' primes. The solver recursively splits
on a pivot vertex, merging equal-neighborhood vertices along the way, and
an independent Bron-Kerbosch enumerator provides ground truth for
differential verification.
"""

from .encoding import (
    EncodedGraph,
    Graph,
    WeightedVertex,
    decode_clique,
    encode,
)
from .errors import IntegrityError, ParseError
from .oracle import DiffReport, bron_kerbosch, diff
from .solver import SolverStats, find_cliques, sanitize, solve_graph

__all__ = [
    "Graph",
    "WeightedVertex",
    "EncodedGraph",
    "encode",
    "decode_clique",
    "SolverStats",
    "find_cliques",
    "sanitize",
    "solve_graph",
    "bron_kerbosch",
    "diff",
    "DiffReport",
    "IntegrityError",
    "ParseError",
]

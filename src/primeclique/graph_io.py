"""Graph ingestion, deterministic generators, and clique output formatting.

Formats:

* DIMACS: optional ``c ...`` comment lines, exactly one ``p edge N M``
  header before any edge, then ``e u v`` lines with 1 <= u,v <= N.
* Edge list: ``u v`` per line, 1-based positive integers, ``#`` starts a
  comment, vertex count inferred as the largest id seen.

Duplicate edges collapse silently in both formats; self-loops are parse
errors. The clique text format is byte-exact: one clique per line, vertex
ids ascending and space-separated, lines sorted lexicographically as
strings, optional tab-separated decimal clique id, trailing newline.
``write_cliques`` prints the ids it is handed and recomputes none.
"""

import math
from collections.abc import Iterable, Mapping
from operator import itemgetter

from .encoding import Graph
from .errors import ParseError

__all__ = [
    "parse_dimacs",
    "parse_edge_list",
    "write_dimacs",
    "gen_complete",
    "gen_path",
    "gen_cycle",
    "gen_gnp",
    "gen_moon_moser",
    "write_cliques",
    "SplitMix64",
]


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS edge format; errors carry the offending line number."""
    n = None
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate p-line", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError("malformed p-line, expected 'p edge N M'", lineno)
            try:
                n, _m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError("malformed p-line, expected 'p edge N M'", lineno)
            if n < 0:
                raise ParseError("negative vertex count", lineno)
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge before p-line", lineno)
            if len(fields) != 3:
                raise ParseError("malformed edge line, expected 'e u v'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("malformed token on edge line", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError("vertex out of range", lineno)
            pairs.append((u, v))
        else:
            raise ParseError(f"unknown line type {fields[0]!r}", lineno)
    if n is None:
        raise ParseError("missing p-line")
    return Graph.from_edges(n, pairs)


def parse_edge_list(text: str) -> Graph:
    """Parse an edge list; the vertex count is the largest id present."""
    pairs = []
    n = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 2:
            raise ParseError("expected two vertex ids per line", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError("non-integer token", lineno)
        if u < 1 or v < 1:
            raise ParseError("vertex ids must be positive", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        n = max(n, u, v)
        pairs.append((u, v))
    return Graph.from_edges(n, pairs)


def write_dimacs(g: Graph) -> str:
    """Render a graph in DIMACS edge format, edges sorted."""
    lines = [f"p edge {g.n} {len(g.edges)}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def gen_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph requires n >= 1")
    return Graph.from_edges(n, ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))


def gen_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path requires n >= 1")
    return Graph.from_edges(n, ((u, u + 1) for u in range(1, n)))


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle requires n >= 3")
    return Graph.from_edges(n, [(u, u + 1) for u in range(1, n)] + [(1, n)])


class SplitMix64:
    """SplitMix64 pseudo-random stream, fixed for cross-platform fixtures.

    State update and output scramble (all arithmetic mod 2**64):

        state += 0x9E3779B97F4A7C15
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p): each pair (u, v), u < v in lexicographic order, is an
    edge iff the next 53-bit draw is below floor(p * 2**53).

    The draw is the top 53 bits of a SplitMix64 output, so the graph is
    bit-identical for fixed (n, p, seed) on any platform or language.
    """
    if n < 1:
        raise ValueError("gnp requires n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    threshold = math.floor(p * float(1 << 53))
    rng = SplitMix64(seed)
    pairs = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (rng.next_u64() >> 11) < threshold:
                pairs.append((u, v))
    return Graph.from_edges(n, pairs)


def gen_moon_moser(k: int) -> Graph:
    """Complete k-partite graph with parts of size 3: 3k vertices and the
    maximum possible number of maximal cliques, 3**k (one vertex per part).
    """
    if k < 1:
        raise ValueError("moon-moser requires k >= 1")
    n = 3 * k
    pairs = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u - 1) // 3 != (v - 1) // 3
    ]
    return Graph.from_edges(n, pairs)


def write_cliques(cliques: Iterable[Iterable[int]] | Mapping[int, Iterable[int]]) -> str:
    """Render cliques in the byte-exact text format.

    Given a mapping from clique id to vertex set, such as ``solve_graph``
    returns, each line gains a tab and the decimal id; given a plain
    iterable of vertex sets, lines carry no id. Each clique is read and
    sorted once, so any iterable of members will do. Members are named from
    a table of decimal strings built once per call, not by one ``str`` call
    per member per line.
    """
    with_ids = isinstance(cliques, Mapping)
    rows = [sorted(c) for c in (cliques.values() if with_ids else cliques)]
    # A table over 0..top is used when it holds no more names than the lines
    # print, so that building it costs no more than naming each member (true
    # of solve_graph's output, where each vertex is in some clique), and when
    # no member is negative, which would index it from the end.
    filled = [row for row in rows if row]
    top = max(map(itemgetter(-1), filled), default=0)
    if min(map(itemgetter(0), filled), default=0) >= 0 and top < sum(map(len, filled)):
        name = list(map(str, range(top + 1))).__getitem__
    else:
        name = str
    if with_ids:
        lines = [f"{' '.join(map(name, row))}\t{i}\n" for row, i in zip(rows, cliques)]
    else:
        lines = [" ".join(map(name, row)) + "\n" for row in rows]
    # Tab and newline sort before space and digits: lines sort as members do.
    lines.sort()
    return "".join(lines)

"""Graph ingestion, deterministic generators, and clique output formatting.

Formats:

* DIMACS: optional ``c ...`` comment lines, exactly one ``p edge N M``
  header before any edge, then ``e u v`` lines with 1 <= u,v <= N. A text
  in the form ``write_dimacs`` writes, the header then one ``e u v`` line
  per edge with u < v, ids in plain decimal, and no whitespace but spaces
  and the newline that ends each line, is read in one pass over its
  tokens, unless an id exceeds the text's token count. Every other
  text, with comments, blank or indented lines, CR, ids such as ``+3`` or
  ``007``, u > v or any error, is read line by line, and only that loop
  names an error and its line. Both give the same graph.
* Edge list: ``u v`` per line, 1-based positive integers, ``#`` starts a
  comment, vertex count inferred as the largest id seen.

Duplicate edges collapse silently in both formats; self-loops are parse
errors. The clique text format is byte-exact: one clique per line, vertex
ids ascending and space-separated, lines sorted lexicographically as
strings, optional tab-separated decimal clique id, trailing newline.
``write_cliques`` prints the ids it is handed and recomputes none.

Both the one-pass parse and ``write_cliques`` read vertex names from one
table kept for the life of the process: each id 1..top to ``str(id)``, and
its inverse. Looking up anything else, 0, a negative or a non-canonical
spelling, is a ``KeyError``. A call grows it to its largest id, but to no
more ids than the call has tokens or members, by building a larger table
and rebinding the module name to it; a table is never changed in place, so
a concurrent reader always holds a whole one.
"""

import math
from collections.abc import Iterable, Mapping
from itertools import combinations, compress, islice, repeat
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

# The name table (module docstring): each id 1..top to its name, and each
# name to its id. Rebound to a larger pair, never mutated.
_names: tuple[dict[int, str], dict[str, int]] = ({}, {})


def _name_table(top: int) -> tuple[dict[int, str], dict[str, int]]:
    """The name table, rebuilt over 1..``top`` first where it stops below."""
    global _names
    table = _names
    if len(table[0]) < top:
        ids = range(1, top + 1)
        names = list(map(str, ids))
        table = _names = (dict(zip(ids, names)), dict(zip(names, ids)))
    return table


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS edge format; errors carry the offending line number.
    Which texts take the one-pass parse: the module docstring."""
    g = _parse_dimacs_tokens(text)
    return _parse_dimacs_lines(text) if g is None else g


def _parse_dimacs_tokens(text: str) -> Graph | None:
    """The graph of a text the line loop accepts, read in one pass over its
    tokens, or None where this pass cannot prove the loop would return it.

    The checks prove that each line holds exactly one record:

    * the text holds no whitespace but spaces and newlines, since its length
      is that of its tokens, spaces and newlines;
    * a token ``e`` cannot be an id, which is read through the inverse of
      the name table, ``"1"`` to its top's name, nor N or M, which are read
      by ``int``; so each of the ``records`` newlines followed by ``"e "``
      starts a record, and since there are no other newlines but a final
      one, every record starts a line and no line breaks one.

    The table holds only the canonical spellings of 1 to its top, so it
    rejects every other spelling, ``"0"`` and signs included. Order and
    range, u < v <= N with N >= 0, are ``Graph``'s checks; where it raises,
    the line loop names the error. The table may hold names past N that an
    earlier call needed: ``max(vs) <= min(N, tokens)`` rejects those, so
    which path a text takes depends on the text only, and this call grows
    the table to that bound only, no more names than the text has tokens.
    """
    tokens = text.split()
    records, odd = divmod(len(tokens) - 4, 3)
    if odd or records < 0 or tokens[0] != "p" or tokens[1] != "edge":
        return None
    newlines = text.count("\n")
    if (
        newlines != records + text.endswith("\n")
        or text.count("\ne ") != records
        or len(text) != len("".join(tokens)) + text.count(" ") + newlines
    ):
        return None
    try:
        n = int(tokens[2])
        int(tokens[3])
    except ValueError:
        return None
    top = min(n, len(tokens))
    named = _name_table(top)[1].__getitem__
    try:
        us = list(map(named, tokens[5::3]))
        vs = list(map(named, tokens[6::3]))
    except KeyError:
        return None
    if max(vs, default=0) > top:
        return None
    try:
        return Graph(n, frozenset(zip(us, vs)))
    except ValueError:
        return None


def _parse_dimacs_lines(text: str) -> Graph:
    """Parse DIMACS line by line, naming the first error and its line."""
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


# gen_gnp evaluates the stream _LANES draws at a time, one draw in each
# 128-bit lane of a single int: lane j is bits 128j to 128j + 127, and its
# value sits in the lane's low 64 bits, so that a product with a 64-bit
# constant fills the lane and never carries into the next one.
_LANES = 512
_GAMMA = 0x9E3779B97F4A7C15
_MASK = SplitMix64.MASK
_ONES = int.from_bytes(b"\x01".ljust(16, b"\0") * _LANES, "little")  # 1 in each lane
_LOW = _ONES * _MASK  # each lane's low 64 bits
_STEP = _GAMMA * int.from_bytes(  # gamma * j in lane j
    b"".join(j.to_bytes(16, "little") for j in range(_LANES)), "little"
)
_JUMP = ((_GAMMA * _LANES) & _MASK) * _ONES  # a block's advance, in each lane


def _draws_below(state: int, low: int, bias: int, lanes: int) -> bytes:
    """One byte per lane, 1 where the lane's draw is below the threshold and
    0 elsewhere, given the lanes' SplitMix64 states (each below 2**64), the
    lanes' low bits and ``bias``, 2**64 + threshold - 1 in each lane.

    Each round of the output scramble is masked back to the lanes' low bits
    before its multiply, where the shift brought in the next lane's bits, and
    after it. Then bias - z is below 2**65 in every lane, so nothing borrows
    across lanes, and its bit 64, the low bit of the lane's byte 8, is set
    exactly when z < threshold.
    """
    z = (((state ^ (state >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
    z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
    return (bias - ((z ^ (z >> 31)) & low)).to_bytes(16 * lanes, "little")[8::16]


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p): each pair (u, v), u < v in lexicographic order, is an
    edge iff the next 53-bit draw is below floor(p * 2**53).

    The draw is the top 53 bits of a SplitMix64 output, so the graph is
    bit-identical for fixed (n, p, seed) on any platform or language. Each
    whole output is compared with the threshold shifted left by 11 bits: the
    same test as comparing its top 53 bits with the threshold.

    The k-th draw's state is seed + (k + 1) * gamma mod 2**64, so the draws
    are computed in blocks of ``_LANES``, each block in one int (see
    ``_draws_below``), and ``itertools.compress`` keeps the block's pairs
    whose draws fall below. The last block holds only the pairs left.
    """
    if n < 1:
        raise ValueError("gnp requires n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    top = (math.floor(p * float(1 << 53)) << 11) + _MASK  # 2**64 + threshold - 1
    pairs = combinations(range(1, n + 1), 2)
    blocks, rest = divmod(n * (n - 1) // 2, _LANES)
    edges = []
    if blocks:
        bias = top * _ONES
        state = (((seed + _GAMMA) & _MASK) * _ONES + _STEP) & _LOW
        for _ in range(blocks):
            edges += compress(islice(pairs, _LANES), _draws_below(state, _LOW, bias, _LANES))
            state = (state + _JUMP) & _LOW
    if rest:
        cut = (1 << (128 * rest)) - 1  # the first `rest` lanes
        ones, low = _ONES & cut, _LOW & cut
        base = (seed + _GAMMA * (blocks * _LANES + 1)) & _MASK
        state = (base * ones + (_STEP & cut)) & low
        edges += compress(pairs, _draws_below(state, low, top * ones, rest))
    return Graph(n, frozenset(edges))  # each pair already has u < v


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

    Given a mapping from clique id to its vertex ids, such as
    ``solve_graph`` returns, each line gains a tab and the decimal id; given
    a plain iterable of cliques, lines carry no id. Each clique is read and
    sorted once, so any iterable of members will do. Members are named from
    the name table the process keeps (module docstring), grown to the
    largest member but to no more ids than the lines print members, so
    growing it costs no more than naming them. If a member is not in it,
    every member is named by ``str``.
    """
    with_ids = isinstance(cliques, Mapping)
    rows = list(map(sorted, cliques.values() if with_ids else cliques))
    top = max(map(itemgetter(-1), filter(None, rows)), default=0)
    name = _name_table(min(top, sum(map(len, rows))))[0].__getitem__
    try:
        lines = list(map(" ".join, map(map, repeat(name), rows)))
    except KeyError:
        lines = list(map(" ".join, map(map, repeat(str), rows)))
    if with_ids:
        lines = [f"{line}\t{i}" for line, i in zip(lines, cliques)]
    # A line that is a prefix of another is followed there by a space, a
    # digit or a sign, all above the newline, so the lines sort as they
    # would with their newlines.
    lines.sort()
    return "\n".join(lines) + "\n" if lines else ""

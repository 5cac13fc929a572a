import hashlib
import math
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.strategies import composite

from _strategies import graphs
from primeclique import graph_io
from primeclique.encoding import Graph
from primeclique.errors import ParseError
from primeclique.graph_io import (
    _parse_dimacs_lines,
    _parse_dimacs_tokens,
    SplitMix64,
    gen_complete,
    gen_cycle,
    gen_gnp,
    gen_moon_moser,
    gen_path,
    parse_dimacs,
    parse_edge_list,
    write_cliques,
    write_dimacs,
)


def test_parse_dimacs_p3():
    g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3")
    assert g == Graph.from_edges(3, [(1, 2), (2, 3)])


def test_parse_dimacs_comments_and_duplicates():
    g = parse_dimacs("c x\np edge 2 1\ne 1 2\ne 2 1\n")
    assert g == Graph.from_edges(2, [(1, 2)])


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("p edge 2 1\ne 1 5", "vertex out of range", 2),
        ("p edge 2 1\ne 1 1", "self-loop", 2),
        ("e 1 2", "edge before p-line", 1),
        ("p edge 2 1\ne 1 x", "malformed token", 2),
        ("p edge 2 1\np edge 2 1", "duplicate p-line", 2),
        ("p foo 2 1", "malformed p-line", 1),
        ("p edge 2 1\nq 1 2", "unknown line type", 2),
        ("c only comments", "missing p-line", None),
        ("", "missing p-line", None),
    ],
)
def test_parse_dimacs_errors(text, message, line):
    with pytest.raises(ParseError, match=message) as exc_info:
        parse_dimacs(text)
    assert exc_info.value.line == line
    if line is not None:
        assert f"line {line}" in str(exc_info.value)


def test_parse_edge_list():
    assert parse_edge_list("1 2\n2 3") == Graph.from_edges(3, [(1, 2), (2, 3)])
    assert parse_edge_list("# c\n1 2") == Graph.from_edges(2, [(1, 2)])
    assert parse_edge_list("1 2  # trailing comment\n") == Graph.from_edges(2, [(1, 2)])
    assert parse_edge_list("") == Graph(0)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 1", "self-loop"),
        ("1 a", "non-integer"),
        ("0 2", "must be positive"),
        ("1 2 3", "two vertex ids"),
    ],
)
def test_parse_edge_list_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_edge_list(text)


@given(graphs(max_n=12))
@settings(max_examples=150)
def test_dimacs_round_trip(g):
    assert parse_dimacs(write_dimacs(g)) == g
    # What write_dimacs writes takes the one-pass parse whenever its ids
    # fit the name table, whose size is bounded by the text's token count.
    tokens = 4 + 3 * len(g.edges)
    assert (_parse_dimacs_tokens(write_dimacs(g)) == g) == all(v <= tokens for _, v in g.edges)


def parse_outcome(parse, text):
    """The graph a parser returns, or the message and line of its ParseError."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line


# Texts near the canonical form, each with the path it must take: True for
# the one-pass parse, False for the line loop.
PARSE_CORPUS = [
    ("p edge 4 2\ne 1 2\ne 3 4\n", True),
    ("p edge 4 2\ne 1 2\ne 3 4", True),
    ("p edge 4 2\ne 1  2\ne 3 4 \n", True),
    ("p edge 3 3\ne 1 2\ne 1 2\ne 2 3\n", True),  # a duplicate edge
    ("p edge 0 0\n", True),
    ("p edge 0 0", True),
    ("p edge 3 0\n", True),
    # a record split across lines or two records on one line
    ("p edge 4 2\ne 1 2 e\n3 4\n", False),
    ("p edge 4 2\ne 1\n2 e 3 4\n", False),
    ("p edge 4 2 e 1 2\ne 3 4\n", False),
    ("p\nedge 4 1\ne 1 2\n", False),
    ("c made by hand\np edge 2 1\ne 1 2\n", False),
    ("p edge 2 1\nc a comment\ne 1 2\n", False),
    ("p edge 2 1\r\ne 1 2\r\n", False),
    ("p edge 2 1\n\ne 1 2\n", False),
    ("p edge 2 1\n \t \ne 1 2\n", False),
    ("p edge 2 1\n e 1 2\n", False),
    ("p edge 2 1\n\te 1 2\n", False),
    ("\np edge 2 1\ne 1 2\n", False),
    ("p edge 2 1\ne\t1 2\n", False),
    ("p edge 3 1\ne +3 1\n", False),
    ("p edge 8 1\ne 007 1\n", False),
    ("p edge 10 1\ne 1 1_0\n", False),
    ("p edge 3 2\ne 2 1\ne 3 2\n", False),  # u > v
    ("p edge 3 1\ne 2 2\n", False),
    ("p edge 3 1\ne 1 4\n", False),
    ("p edge 3 1\ne 0 1\n", False),
    ("p edge -1 0\n", False),
    ("p edge x 0\n", False),
    ("p edge 2 1\np edge 2 1\n", False),
    ("p edge 2 1\ne 1 x\n", False),
    ("e 1 2\np edge 2 1\n", False),
    ("", False),
    ("p edge 2\n", False),
]


@pytest.mark.parametrize("text, one_pass", PARSE_CORPUS)
def test_one_pass_parse_takes_only_the_canonical_form(text, one_pass):
    assert (_parse_dimacs_tokens(text) is not None) == one_pass
    assert parse_outcome(parse_dimacs, text) == parse_outcome(_parse_dimacs_lines, text)


# Token and newline soups: the text write_dimacs writes for a small graph,
# split into its tokens and the whitespace between them, with up to three of
# either replaced, so that records can share or split lines.
SOUP_TOKENS = st.sampled_from(["", "p", "edge", "e", "c", "x", "+3", "007", "1_0", "-1", "0", "1", "2", "3", "7"])
SOUP_SPACES = st.sampled_from(["", " ", "  ", "\t", "\n", "\n", "\r\n", "\r", "\n\n", "\n \n", "\nc x\n", "\n "])


@composite
def dimacs_soups(draw):
    parts = re.split(r"(\s)", write_dimacs(draw(graphs(max_n=6))))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(parts) - 1))
        parts[i] = draw(SOUP_SPACES if i % 2 else SOUP_TOKENS)
    return "".join(parts)


@given(dimacs_soups())
@example("p edge 4 2\ne 1 2 e\n3 4\n")
@example("p edge 4 2\ne 1\n2 e 3 4\n")
@settings(max_examples=400, deadline=None)
def test_one_pass_parse_agrees_with_the_line_loop(text):
    # the same graph, or the same error at the same line
    assert parse_outcome(parse_dimacs, text) == parse_outcome(_parse_dimacs_lines, text)


def test_one_pass_parse_memory_does_not_grow_with_the_vertex_count():
    # The name table is bounded by the text's tokens, not by N. N = 10^6
    # comes first, so that a table over 1..N fails there, at about 100 MB,
    # before N = 10^9 would ask for 10^9 names.
    for text, n, edges in [
        ("p edge 1000000 1\ne 1 2\n", 10**6, {(1, 2)}),
        ("p edge 1000000000 0", 10**9, set()),
        ("p edge 1000000000 1\ne 1 2\n", 10**9, {(1, 2)}),
    ]:
        tracemalloc.start()
        try:
            g = parse_dimacs(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert g == Graph(n, frozenset(edges))
        assert _parse_dimacs_tokens(text) == g


def test_name_table_grown_by_a_large_graph_changes_no_parse():
    # Once a 1000-vertex path has grown the name table past every id below,
    # the one-pass parse still rejects an id over N, and every other spelling
    # of an id still goes to the line loop, with the same graph or error.
    path = gen_path(1000)
    assert _parse_dimacs_tokens(write_dimacs(path)) == path
    text = "p edge 5 1\ne 1 7\n"
    assert _parse_dimacs_tokens(text) is None
    with pytest.raises(ParseError, match="vertex out of range") as exc_info:
        parse_dimacs(text)
    assert exc_info.value.line == 2
    for text, outcome in [
        ("p edge 8 1\ne 0 3\n", ("vertex out of range, line 2", 2)),
        ("p edge 8 1\ne 1 +3\n", Graph(8, frozenset({(1, 3)}))),
        ("p edge 8 1\ne 1 007\n", Graph(8, frozenset({(1, 7)}))),
    ]:
        assert _parse_dimacs_tokens(text) is None
        assert parse_outcome(parse_dimacs, text) == outcome


def test_name_table_grown_past_ten_thousand_changes_no_output():
    # The pins of test_write_cliques_reads_each_clique_once_and_names_every_member,
    # after a parse has grown the table over 1..12000: a member the table
    # lacks, 0 or a negative, still prints each member by itself.
    path = gen_path(12000)
    assert parse_dimacs(write_dimacs(path)) == path
    assert len(graph_io._names[0]) > 10**4
    plain = ((v for v in c) for c in ([10, 9], [10000, 0], [9, 10], []))
    assert write_cliques(plain) == "\n0 10000\n9 10\n9 10\n"
    assert write_cliques(iter(c) for c in ([2, 1], [1, -1, 2], [0, 2])) == "-1 1 2\n0 2\n1 2\n"


@given(graphs(min_n=2, max_n=12))
@settings(max_examples=150)
def test_edge_list_round_trip(g):
    # the format infers n from the largest id, so pin vertex n to an edge
    g = Graph(g.n, g.edges | {(g.n - 1, g.n)})
    assert parse_edge_list("".join(f"{u} {v}\n" for u, v in sorted(g.edges))) == g


def test_generators_small():
    assert len(gen_complete(3).edges) == 3
    assert gen_complete(1) == Graph(1)
    assert len(gen_path(4).edges) == 3
    assert gen_cycle(3) == gen_complete(3)
    assert len(gen_cycle(5).edges) == 5


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_complete(0),
        lambda: gen_path(0),
        lambda: gen_cycle(2),
        lambda: gen_gnp(0, 0.5, 1),
        lambda: gen_gnp(5, 1.5, 1),
        lambda: gen_moon_moser(0),
    ],
)
def test_generator_parameter_errors(make):
    with pytest.raises(ValueError):
        make()


def test_splitmix64_reference_vectors():
    # published outputs of the splitmix64 reference implementation, seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_gen_gnp_frozen_fixture():
    # derived by hand from the seed-0 splitmix64 stream and the
    # floor(0.5 * 2**53) threshold
    g = gen_gnp(5, 0.5, 0)
    assert sorted(g.edges) == [(1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5)]


def test_gen_gnp_deterministic_and_extremes():
    assert gen_gnp(10, 0.4, 7) == gen_gnp(10, 0.4, 7)
    assert gen_gnp(10, 0.4, 7) != gen_gnp(10, 0.4, 8)
    assert gen_gnp(5, 0.0, 123).edges == frozenset()
    assert gen_gnp(5, 1.0, 123) == gen_complete(5)


def plain_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) from the stream object, one draw per pair, top 53 bits."""
    threshold = math.floor(p * float(1 << 53))
    rng = SplitMix64(seed)
    pairs = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (rng.next_u64() >> 11) < threshold
    ]
    return Graph.from_edges(n, pairs)


# gen_gnp draws in blocks of _LANES = 512 pairs. G(32) has 496 pairs, one
# block less 16; G(33) 528, one block and 16; G(45) 990, two blocks less 34;
# G(46) 1035, two blocks and 11; G(2 * _LANES) a whole number of blocks and
# no short last one. Both sides reduce the seed mod 2**64, and the CLI
# passes any int.
@given(
    st.integers(1, 110),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    st.integers(-(1 << 65), 1 << 66),
)
@example(40, 0.0, 5)
@example(40, 1.0, 5)
@example(32, 0.5, 5)
@example(33, 0.5, -5)
@example(45, 0.3, (1 << 64) + 5)
@example(46, 0.3, -(1 << 64) - 5)
@example(2 * graph_io._LANES, 0.01, -77)
@settings(max_examples=200, deadline=None)
def test_gen_gnp_matches_a_plain_loop_over_the_stream(n, p, seed):
    assert gen_gnp(n, p, seed) == plain_gnp(n, p, seed)


@pytest.mark.parametrize(
    "seed, digest",
    [
        (1, "46852734d27ff9ca20d8514fa565694c83b7b45a65673c5c68887806d671f4b5"),
        (7, "16e25b3957bb1ea45c70bdc06a01bb2f56b2bda65c738aac63c22dbb05d79d63"),
        (701, "36c7cdd3177bc74a028246b661ae1910138ab698fb9a8a116e5c04e3b8a7b6ed"),
    ],
)
def test_gen_gnp_dimacs_bytes_are_pinned(seed, digest):
    # the benchmark's dense size, G(70, .33); the digests were taken from the
    # generator that drew through SplitMix64.next_u64 one pair at a time
    text = write_dimacs(gen_gnp(70, 0.33, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gen_moon_moser_structure():
    g = gen_moon_moser(2)
    assert g.n == 6
    # complete bipartite over two parts of three: 3 * 3 cross edges
    assert len(g.edges) == 9
    assert all((u - 1) // 3 != (v - 1) // 3 for u, v in g.edges)
    assert len(gen_moon_moser(3).edges) == 27


def test_write_cliques_plain():
    assert write_cliques([{2, 1}, {3, 2}]) == "1 2\n2 3\n"
    assert write_cliques([]) == ""
    # a mapping's values without its keys print no ids
    assert write_cliques({6: {1, 2}, 15: {2, 3}}.values()) == "1 2\n2 3\n"


def test_write_cliques_with_ids():
    # a mapping's keys are printed as the ids, whatever they are
    assert write_cliques({15: {3, 2}, 6: {1, 2}}) == "1 2\t6\n2 3\t15\n"
    assert write_cliques({7: {1, 2}}) == "1 2\t7\n"
    assert write_cliques({}) == ""


def test_write_cliques_with_ids_orders_a_prefix_first():
    # the tab after "1 2" sorts before the space of "1 2 3"
    out = write_cliques({30: frozenset({1, 2, 3}), 6: frozenset({1, 2})})
    assert out == "1 2\t6\n1 2 3\t30\n"


def test_write_cliques_orders_lines_as_strings():
    # lexicographic on the rendered line: "1 10" sorts before "1 2"
    out = write_cliques([{1, 2}, {1, 10}])
    assert out == "1 10\n1 2\n"


def test_write_cliques_reads_each_clique_once_and_names_every_member():
    # One-shot members, unsorted, and members across every change of digit
    # count, 0 included, which the name table never holds.
    with_ids = {
        110: (v for v in (10, 9)),
        7: iter([10000, 0, 9]),
        3: [10, 0],
        13: (v for v in [9]),
        2: (v for v in range(10000, -1, -1)),
    }
    run = " ".join(map(str, range(10001)))
    assert write_cliques(with_ids) == f"{run}\t2\n0 10\t3\n0 9 10000\t7\n9\t13\n9 10\t110\n"
    # Members the table may lack, past the ids a parse grew it to, print as
    # themselves.
    plain = ((v for v in c) for c in ([10, 9], [10000, 0], [9, 10], []))
    assert write_cliques(plain) == "\n0 10000\n9 10\n9 10\n"
    # -1 and 0 are never in the table and must print as themselves.
    assert write_cliques(iter(c) for c in ([2, 1], [1, -1, 2], [0, 2])) == "-1 1 2\n0 2\n1 2\n"


# Cliques whose members fall around every name table: negatives, 0, the ids
# a grown table holds, ids past any table, and empty cliques.
MEMBERS = st.one_of(st.integers(-12, 1100), st.sampled_from([-(10**9), 10**6, 10**12]))
CLIQUES = st.lists(MEMBERS, max_size=6)
GROWN = write_dimacs(gen_path(1200))


def reference_write_cliques(cliques):
    """Each member named by str, each clique sorted, the lines sorted."""
    if isinstance(cliques, dict):
        lines = [" ".join(map(str, sorted(c))) + f"\t{i}\n" for i, c in cliques.items()]
    else:
        lines = [" ".join(map(str, sorted(c))) + "\n" for c in cliques]
    return "".join(sorted(lines))


@given(st.one_of(st.lists(CLIQUES, max_size=8), st.dictionaries(st.integers(1, 10**12), CLIQUES, max_size=8)))
@settings(max_examples=200, deadline=None)
def test_write_cliques_equals_naming_each_member_by_str(cliques):
    # On a fresh name table, and again after a parse grew it over 1..1200.
    expected = reference_write_cliques(cliques)
    kept = graph_io._names
    try:
        graph_io._names = (graph_io._NameDict(), {})
        assert write_cliques(cliques) == expected
        parse_dimacs(GROWN)
        assert len(graph_io._names[0]) == 1200
        assert write_cliques(cliques) == expected
    finally:
        graph_io._names = kept


def test_write_cliques_grows_no_table_past_the_members_it_prints(monkeypatch):
    # A table over 1..10^6 would take about 100 MB, and over 1..10^9 far more.
    for cliques, out in [([[10**9]], "1000000000\n"), ({2: (1, 10**6)}, "1 1000000\t2\n")]:
        monkeypatch.setattr(graph_io, "_names", (graph_io._NameDict(), {}))
        tracemalloc.start()
        try:
            text = write_cliques(cliques)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert text == out


def test_write_cliques_only_reads_the_name_table(monkeypatch):
    # From a fresh table, members past it, 0, a negative and 10^9, print as
    # their str, from a Mapping and from a one-shot iterable, and the call
    # adds no name: only the parses grow the table.
    monkeypatch.setattr(graph_io, "_names", (graph_io._NameDict(), {}))
    with_ids = {30: (3, 0, 2), 7: [10**9, -4, 1], 5: ()}
    plain = (iter(c) for c in [(2, 1, 3), (10**9, 0), (-4, 5, 4, 6)])
    assert write_cliques(with_ids) == reference_write_cliques(with_ids)
    assert write_cliques(plain) == reference_write_cliques([(2, 1, 3), (10**9, 0), (-4, 5, 4, 6)])
    assert len(graph_io._names[0]) == 0


def test_every_parse_path_grows_the_name_table(monkeypatch):
    # The one-pass text, a CRLF copy with a comment line, and its edge list:
    # the last two take line loops, which grow the table too.
    g = gen_moon_moser(4)
    text = write_dimacs(g)
    crlf = "c Moon-Moser 4\r\n" + text.replace("\n", "\r\n")
    edges = "".join(f"{u} {v}\n" for u, v in sorted(g.edges))
    assert _parse_dimacs_tokens(text) == g
    assert _parse_dimacs_tokens(crlf) is None
    for parse, source in [(parse_dimacs, text), (parse_dimacs, crlf), (parse_edge_list, edges)]:
        monkeypatch.setattr(graph_io, "_names", (graph_io._NameDict(), {}))
        assert parse(source) == g
        assert all(v in graph_io._names[0] for edge in g.edges for v in edge)


def test_line_loops_grow_no_table_past_twice_the_edges(monkeypatch):
    # N = 10^9 and two edges, through the DIMACS line loop (for its comment)
    # and as an edge list: each grows at most min(N, 2 * edges) = 4 names.
    edges = {(1, 10**9), (2, 3)}
    for parse, text in [
        (parse_dimacs, "c x\np edge 1000000000 2\ne 1 1000000000\ne 2 3\n"),
        (parse_edge_list, "1 1000000000\n2 3\n"),
    ]:
        monkeypatch.setattr(graph_io, "_names", (graph_io._NameDict(), {}))
        tracemalloc.start()
        try:
            g = parse(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert g == Graph(10**9, frozenset(edges))
        assert len(graph_io._names[0]) <= 4

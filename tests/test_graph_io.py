import pytest
from hypothesis import given, settings

from _strategies import graphs
from primeclique.encoding import Graph
from primeclique.errors import ParseError
from primeclique.graph_io import (
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
    # count, 0 included. The descending run 10000..0 holds enough names for
    # the call to use a name table over 0..10000.
    with_ids = {
        110: (v for v in (10, 9)),
        7: iter([10000, 0, 9]),
        3: [10, 0],
        13: (v for v in [9]),
        2: (v for v in range(10000, -1, -1)),
    }
    run = " ".join(map(str, range(10001)))
    assert write_cliques(with_ids) == f"{run}\t2\n0 10\t3\n0 9 10000\t7\n9\t13\n9 10\t110\n"
    # Too few names for a table over 0..10000: each member is named by itself.
    plain = ((v for v in c) for c in ([10, 9], [10000, 0], [9, 10], []))
    assert write_cliques(plain) == "\n0 10000\n9 10\n9 10\n"
    # Enough names for a table over 0..2, but -1 would index it from its end
    # and print as 2.
    assert write_cliques(iter(c) for c in ([2, 1], [1, -1, 2], [0, 2])) == "-1 1 2\n0 2\n1 2\n"

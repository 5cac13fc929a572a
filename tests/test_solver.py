import hashlib
import math
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import (
    assert_records_hold,
    is_clique,
    is_maximal,
    reference_find_cliques,
    reference_peel,
)
from _strategies import (
    barabasi_albert,
    cores_with_fringe,
    graphs,
    sparse_gnp,
    twin_blowup,
    twin_blowups,
)
import primeclique
from primeclique import encoding, solver
from primeclique.encoding import EncodedGraph, Graph, WeightedVertex, decode_clique, encode
from primeclique.errors import IntegrityError
from primeclique.graph_io import gen_complete, gen_cycle, gen_gnp, gen_moon_moser, gen_path
from primeclique.oracle import bron_kerbosch, diff
from primeclique.primes import first_n_primes
from primeclique.solver import (
    SolverStats,
    drop_contained_ids,
    eliminate_case1_from_right,
    find_cliques,
    merge_equal_weights,
    partition_by_pivot,
    sanitize,
    solve_graph,
    sort_by_weight,
)

WV = WeightedVertex


def test_sort_by_weight_descending():
    q = [WV(2, 6), WV(5, 15), WV(3, 30)]
    assert sort_by_weight(q) == [WV(3, 30), WV(5, 15), WV(2, 6)]
    assert sort_by_weight([]) == []


def test_sort_by_weight_stable_on_ties():
    q = [WV(2, 30), WV(3, 30)]
    assert sort_by_weight(q) == q


def test_merge_equal_weights():
    q = [WV(2, 30), WV(3, 30), WV(5, 30)]
    merged = merge_equal_weights(q)
    assert merged == [WV(30, 30)]
    assert len(q) - len(merged) == 2  # the merge count find_cliques records
    assert merge_equal_weights([WV(2, 6), WV(3, 6), WV(5, 15)]) == [WV(6, 6), WV(5, 15)]
    assert merge_equal_weights([WV(2, 6), WV(5, 15)]) == [WV(2, 6), WV(5, 15)]


def test_partition_by_pivot_p3(p3):
    # sorted tuples: pivot (3, 30), rest [(5, 15), (2, 6)]
    left, right, bound = partition_by_pivot([WV(5, 15), WV(2, 6)], WV(3, 30))
    assert left == [WV(5, 5), WV(2, 2)]
    assert right == []
    assert bound == [WV(5, 5), WV(2, 2)]


def test_partition_by_pivot_g5(g5):
    # descending order puts vertex 2 (value 3, weight 330) first
    eg = encode(g5)
    q = sort_by_weight(eg.tuples)
    assert q[0] == WV(3, 330)
    left, right, bound = partition_by_pivot(q[1:], q[0])
    assert left == [WV(2, 10), WV(11, 11), WV(5, 10)]
    # the case-2 copy of vertex 1 (weight 2*5*7) loses the case-1 prime 5
    assert right == [WV(2, 14), WV(7, 14)]
    assert bound == [WV(11, 11), WV(5, 10)]


@given(graphs(max_n=12))
@example(Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5)]))  # g5
@settings(max_examples=200, deadline=None)
def test_partition_matches_neighborhood_arithmetic(g):
    # cross-check the split against plain set computations on the graph:
    # every right weight, non-neighbors of the pivot included, must be
    # N[t] - {p} - (the case-1 vertices)
    eg = encode(g)
    q = sort_by_weight(eg.tuples)
    if not q:
        return
    pivot, rest = q[0], q[1:]
    left, right, bound = partition_by_pivot(rest, pivot)
    adj = g.adjacency()
    basis = list(eg.assignment.primes)
    closed = {u: adj[u] | {u} for u in g.vertices()}
    pivot_vertex = basis.index(pivot.value) + 1

    expected_left = {}
    expected_right = {}
    expected_bound = set()
    for t in rest:
        u = basis.index(t.value) + 1
        if pivot_vertex not in closed[u]:
            expected_right[t.value] = closed[u]
            continue
        if closed[u] <= closed[pivot_vertex]:
            expected_left[t.value] = closed[u] - {pivot_vertex}
            expected_bound.add(t.value)
        else:
            expected_left[t.value] = (closed[u] & closed[pivot_vertex]) - {pivot_vertex}
            expected_right[t.value] = closed[u] - {pivot_vertex}

    assert {t.value for t in bound} == expected_bound
    case1 = {basis.index(value) + 1 for value in expected_bound}
    expected_right = {value: members - case1 for value, members in expected_right.items()}
    for got, expected in ((left, expected_left), (right, expected_right)):
        assert {t.value for t in got} == set(expected)
        for t in got:
            assert decode_clique(t.weight, eg.assignment) == expected[t.value]


def test_partition_by_pivot_isolated_pivot():
    rest = [WV(5, 21), WV(11, 11)]
    left, right, bound = partition_by_pivot(rest, WV(2, 6))
    assert left == []
    assert bound == []
    assert right == rest


def test_eliminate_case1_from_right():
    right = [WV(2, 70), WV(7, 14)]
    bound = [WV(11, 11), WV(5, 10)]
    assert eliminate_case1_from_right(right, bound) == [WV(2, 14), WV(7, 14)]
    assert eliminate_case1_from_right(right, []) == right
    assert eliminate_case1_from_right([], bound) == []


@pytest.mark.parametrize(
    "edges, n, expected_ids",
    [
        ([(1, 2), (1, 3), (2, 3)], 3, {30}),  # K3
        ([(1, 2), (2, 3)], 3, {6, 15}),  # P3
        ([(1, 2), (1, 3), (1, 4), (2, 3), (2, 5)], 5, {30, 33, 14}),
        ([], 2, {2, 3}),  # two isolated vertices
    ],
)
def test_find_cliques_fixtures(edges, n, expected_ids):
    g = Graph.from_edges(n, edges)
    ids, _stats = find_cliques(encode(g))
    assert frozenset(ids) == frozenset(expected_ids)
    # independent enumerator agrees
    decoded = {frozenset(decode_clique(i, encode(g).assignment)) for i in ids}
    assert decoded == set(bron_kerbosch(g))


def test_find_cliques_empty_and_singleton():
    assert find_cliques(encode(Graph(0)))[0] == {}
    assert find_cliques(encode(Graph(1)))[0] == {2: (1,)}


def test_complete_graph_collapses_in_one_call():
    for n in (2, 5, 9):
        eg = encode(gen_complete(n))
        for sanitized in (False, True):
            ids, stats = find_cliques(eg, sanitize=sanitized)
            assert len(ids) == 1
            if sanitized and n == 2:
                # each vertex of K_2 has one neighbour: the peel settles both
                assert stats == SolverStats(max_weight_bits=3, peeled=2)
                continue
            assert stats.recursive_calls == 1
            assert stats.merges == n - 1
            assert stats.pivot_splits == 0


def raw_extras_graph() -> Graph:
    """Seven vertices built so the recursion emits a non-maximal id.

    Vertex 1 is a hub over 2, 3, 6, 7; vertices 2 and 3 are adjacent and
    each has a private neighbor (4, 5). The pivot-free branch then reports
    {2, 3}, which vertex 1 extends.
    """
    return Graph.from_edges(7, [(1, 2), (1, 3), (1, 6), (1, 7), (2, 3), (2, 4), (3, 5)])


def test_raw_output_contains_nonmaximal_id():
    g = raw_extras_graph()
    eg = encode(g)
    raw, _ = find_cliques(eg, sanitize=False)
    assert sorted(raw[15]) == [2, 3]  # {2, 3}: primes 3 * 5
    assert 30 in raw  # {1, 2, 3}: the superset that makes 15 non-maximal
    cleaned = sanitize(raw, eg)
    assert 15 not in cleaned
    decoded = {frozenset(decode_clique(i, eg.assignment)) for i in cleaned}
    assert decoded == set(bron_kerbosch(g))


def test_sanitize_examples(paw):
    eg = encode(paw)
    # {1,2,3} = 2*3*5 = 30 strictly contains {1,2} = 6
    assert sanitize([30, 6], eg) == frozenset({30})
    # 21 = {2,4} is incomparable with 30
    assert sanitize([30, 21], eg) == frozenset({30, 21})
    assert sanitize([], eg) == frozenset()


def test_sanitize_rejects_non_clique(paw):
    eg = encode(paw)
    # 35 = {3, 4}: not adjacent in the paw
    with pytest.raises(IntegrityError, match="35"):
        sanitize([30, 35], eg)


def test_sanitize_decodes_over_the_graphs_primes_only():
    # 7 is the 4th prime, so it names no vertex of the 3-vertex path
    eg = encode(gen_path(3))
    assert eg.assignment.primes == (2, 3, 5)
    with pytest.raises(IntegrityError, match="malformed clique id 7: residue 7 is not 1"):
        sanitize([7], eg)


def test_drop_contained_ids():
    assert drop_contained_ids([30, 6, 6, 21]) == frozenset({30, 21})
    assert drop_contained_ids([]) == frozenset()


def test_find_cliques_sanitize_matches_full_sanitize(g5):
    eg = encode(g5)
    pruned, _ = find_cliques(eg)
    raw, _ = find_cliques(eg, sanitize=False)
    assert frozenset(pruned) == sanitize(raw, eg)


def test_solve_graph_returns_emission_order(g5):
    # vertices 3, 4 and 5 start the peel's worklist with at most 2 neighbours
    # each and emit 30 = {1, 2, 3}, 14 = {1, 4} and 33 = {2, 5} in that
    # order, as find_cliques emits them; the raw step's pivot 2 (weight 330)
    # puts 33 first
    cliques, _ = solve_graph(g5)
    assert [(i, frozenset(c)) for i, c in cliques.items()] == [
        (30, frozenset({1, 2, 3})),
        (14, frozenset({1, 4})),
        (33, frozenset({2, 5})),
    ]
    assert list(cliques) == list(find_cliques(encode(g5))[0])
    assert list(solve_graph(g5, sanitize=False)[0]) == [33, 30, 14]


def test_solve_graph_raw_keeps_emission_order():
    g = raw_extras_graph()
    cliques, _ = solve_graph(g, sanitize=False)
    assert frozenset({2, 3}) in map(frozenset, cliques.values())
    assert list(cliques) == list(find_cliques(encode(g), sanitize=False)[0])
    assert len(cliques) == 6


@pytest.mark.parametrize("sanitized", [True, False])
def test_solve_graph_keys_are_the_ids_under_its_assignment(sanitized):
    g = gen_gnp(30, 0.4, seed=9)
    primes = first_n_primes(g.n)
    cliques, _ = solve_graph(g, sanitize=sanitized)
    for clique_id, members in cliques.items():
        assert clique_id == math.prod(primes[v - 1] for v in members)
    # keys come in emission order in both modes, which on this graph is not
    # id order
    ids, _ = find_cliques(encode(g), sanitize=sanitized)
    assert list(cliques) == list(ids)
    assert list(ids) != sorted(ids)


def test_solve_graph_deep_recursion():
    # the paper's recursion nests once per vertex here, past CPython's
    # default limit of 1000 frames; the stack loop does not use frames
    g = gen_path(1200)
    cliques, _ = solve_graph(g)
    assert len(cliques) == 1199


@given(graphs(min_n=2, max_n=12))
@settings(max_examples=150)
def test_partition_shrinks_both_sides(g):
    tuples = encode(g).tuples
    q = merge_equal_weights(sort_by_weight(tuples))
    if len(q) < 2:
        return
    left, right, _ = partition_by_pivot(q[1:], q[0])
    assert len(left) < len(q)
    assert len(right) < len(q)


@given(graphs(min_n=2, max_n=12))
@settings(max_examples=100)
def test_pivot_multiplication_preserves_cliques(g):
    eg = encode(g)
    q = merge_equal_weights(sort_by_weight(eg.tuples))
    if len(q) < 2:
        return
    pivot = q[0]
    left, _, _ = partition_by_pivot(q[1:], pivot)
    ids, _ = reference_find_cliques(left)
    for clique_id in ids:
        members = decode_clique(clique_id * pivot.value, eg.assignment)
        assert is_clique(g, members)


@given(graphs(max_n=11))
@settings(max_examples=150, deadline=None)
def test_sanitized_output_is_exactly_the_maximal_cliques(g):
    cliques, _ = solve_graph(g)
    assert diff(cliques.values(), bron_kerbosch(g)).equal
    for c in cliques.values():
        assert is_maximal(g, set(c))


def test_raw_output_has_no_duplicate_ids():
    # pivot-side ids carry the pivot prime, pivot-free ids never do; the
    # literal list has no duplicate for the dict of ids to collapse
    for i in range(60):
        g = gen_gnp(1 + (i % 12), [0.3, 0.6, 0.9][i % 3], seed=800 + i)
        eg = encode(g)
        literal, _ = reference_find_cliques(eg.tuples)
        assert len(literal) == len(set(literal))
        assert list(find_cliques(eg, sanitize=False)[0]) == literal


@given(graphs(max_n=12))
@settings(max_examples=200, deadline=None)
def test_exact_emission_equals_sanitized_literal_output(g):
    eg = encode(g)
    exact, _ = find_cliques(eg)
    literal, _ = find_cliques(eg, sanitize=False)
    assert frozenset(exact) == sanitize(literal, eg)
    # the guard changes the pivots and their order, not the members
    assert all(set(exact[c]) == set(literal[c]) for c in exact)
    assert not any(b % a == 0 for a in exact for b in exact if a != b)
    # maximal exactly when the members' input weights have the id as gcd
    weights = {c: [eg.tuples[v - 1].weight for v in decode_clique(c, eg.assignment)] for c in literal}
    assert exact.keys() == {c for c in literal if math.gcd(*weights[c]) == c}


def test_guard_drops_entries_it_extends():
    # dense enough that guarded entries run out of tuples not adjacent to
    # their guard, and no vertex has 2 neighbours or fewer (k4_pendants and
    # gnp12 drop one too, pinned below)
    g = gen_gnp(40, 0.6, seed=1040)
    cliques, stats = solve_graph(g)
    _, raw_stats = find_cliques(encode(g), sanitize=False)
    expected = bron_kerbosch(g)
    assert set(map(frozenset, cliques.values())) == set(expected)
    assert len(cliques) == len(expected)
    assert stats.pruned > 0
    assert raw_stats.pruned == 0


def assert_matches_reference(g):
    eg = encode(g)
    # raw: ids in emission order and SolverStats
    raw, stats = find_cliques(eg, sanitize=False)
    assert (list(raw), stats) == reference_find_cliques(eg.tuples)
    # sanitized: the maximal ids among them, each with the same members
    exact, _ = find_cliques(eg)
    assert frozenset(exact) == sanitize(raw, eg)
    assert all(set(exact[c]) == set(raw[c]) for c in exact)


@given(graphs(max_n=12))
@settings(max_examples=200, deadline=None)
def test_find_cliques_takes_the_literal_steps(g):
    assert_matches_reference(g)


@given(twin_blowups())
@settings(max_examples=150, deadline=None)
def test_twin_blowups_match_bron_kerbosch_and_the_literal_steps(g):
    # up to 40 vertices; twins merge on both sides of a split
    eg = encode(g)
    exact, _ = find_cliques(eg)
    expected = bron_kerbosch(g)
    assert len(exact) == len(expected)
    assert set(map(frozenset, exact.values())) == set(expected)
    raw, stats = find_cliques(eg, sanitize=False)
    assert (list(raw), stats) == reference_find_cliques(eg.tuples)
    assert_records_hold(exact, eg)
    assert_records_hold(raw, eg)


@given(cores_with_fringe())
@settings(max_examples=150, deadline=None)
def test_cores_with_fringe_match_bron_kerbosch_and_the_literal_steps(g):
    # the peel settles the fringe, the step the core with the fringe's
    # primes left in its weights
    eg = encode(g)
    exact, _ = find_cliques(eg)
    expected = bron_kerbosch(g)
    assert len(exact) == len(expected)
    assert set(map(frozenset, exact.values())) == set(expected)
    assert_records_hold(exact, eg)
    raw, stats = find_cliques(eg, sanitize=False)
    assert (list(raw), stats) == reference_find_cliques(eg.tuples)


REFERENCE_GRAPHS = {
    "star_1_199": lambda: Graph.from_edges(200, [(1, v) for v in range(2, 201)]),
    "k30_pendants": lambda: complete_with_pendants(30),
    "path600": lambda: gen_path(600),
    "cycle600": lambda: gen_cycle(600),
    "gnp600": lambda: gen_gnp(600, 2.5 / 600, seed=7),
    # dense enough that most pivots walk the live tuples, not their neighbours
    "gnp70_033": lambda: gen_gnp(70, 0.33, seed=7),
    "moon_moser5": lambda: gen_moon_moser(5),
    # 4 of its 16 vertices peel; 5 more fold into 3 classes, and 2 of the
    # step's 4 cliques hold representatives of 2 classes each
    "twin_blowup6": lambda: twin_blowup(random.Random(6), 8, 0.5, 40),
}


@pytest.mark.parametrize("name", REFERENCE_GRAPHS)
def test_find_cliques_takes_the_literal_steps_on_larger_graphs(name):
    assert_matches_reference(REFERENCE_GRAPHS[name]())


# Sanitized ids come in their own order, which assert_matches_reference
# compares only as a set: the SHA-256 of the ids in emission order, joined by
# spaces, and the SolverStats fields in declaration order (merges,
# pivot_splits, case1_count, case2_count, max_weight_bits, pruned, peeled,
# folded; a field left out is 0). Moon–Moser 5 folds its 15 vertices into
# the 5 representatives of its parts, so the step runs on K_5 and emits one
# clique, which expands into the other 3^5 - 1 in product order (the
# moon_moser5 and twin_blowup6 digests were taken under it). A test id names
# the pivot order its pin was taken under, the largest weight first.
SANITIZED_GOLDEN = [
    ("star_1_199", "0e5be3179e12fb9cedeb76dd03edf7d1ac20ab1f5766606ac2af44848f7027b1", (0, 0, 0, 0, 1704, 0, 200)),
    ("k30_pendants", "d287cd3b94dc0f1a5ab3ee86cbb8fb837ee53e2823b2aea46154345aed04ac5a", (28, 1, 0, 29, 163, 1, 30)),
    ("path600", "c5351eb75bba8cb42d2761e6e050e4298fa6f07a92fa2cec6c61b21e4b9b6fcc", (0, 0, 0, 0, 37, 0, 600)),
    ("cycle600", "4c9788643a64841130cf6c5fcbe862f8b2b0ccbbcd2b3cb13ba3c34b904b31ce", (0, 0, 0, 0, 37, 0, 600)),
    ("gnp600", "91813abf3ce2455b0c33da145f0176ed88d31a7c3c2955ae517362e5594f1c23", (0, 0, 0, 0, 101, 0, 600)),
    ("gnp70_033", "58eb3b81e11f7f6de4dba1be044d9554c0d9745497b1142ff7c56010384aaa21", (282, 1446, 527, 2512, 209, 47)),
    ("moon_moser5", "6cc6b30c9fda45e89fe7adb72861c7155c195c54565cf20c4638604be42c9677", (0, 4, 0, 10, 57, 4, 0, 10)),
    ("twin_blowup6", "2b7a87f2d5da7a7fd6c6189776410527f9b39b04c120f5cb732189ed3628f619", (2, 4, 1, 5, 35, 1, 4, 5)),
]


@pytest.mark.parametrize(
    "name, digest, stats",
    SANITIZED_GOLDEN,
    ids=[f"{name}-descending" for name, *_ in SANITIZED_GOLDEN],
)
def test_sanitized_emission_order_and_stats_are_pinned(name, digest, stats):
    exact, exact_stats = find_cliques(encode(REFERENCE_GRAPHS[name]()))
    assert hashlib.sha256(" ".join(map(str, exact)).encode()).hexdigest() == digest
    assert exact_stats == SolverStats(*stats)


SWEEP = (
    [("gnp", n, p) for n in (20, 40, 80) for p in (0.1, 0.3, 0.5)]
    + [("gnp", n, 0.7) for n in (20, 40)]
    + [("moon-moser", k, None) for k in range(1, 7)]
    + [("path", 500, None), ("cycle", 500, None)]
)


def star(n: int) -> Graph:
    """K_{1,n-1}: hub 1 joined to every other vertex."""
    return Graph.from_edges(n, [(1, v) for v in range(2, n + 1)])


def wheel(n: int) -> Graph:
    """Hub 1 joined to every vertex of the cycle 2..n."""
    rim = [(v, v + 1) for v in range(2, n)] + [(2, n)]
    return Graph.from_edges(n, [(1, v) for v in range(2, n + 1)] + rim)


def random_tree(n: int, seed: int) -> Graph:
    """Vertex k > 1 joined to one of 1..k-1, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return Graph.from_edges(n, [(rng.randint(1, v - 1), v) for v in range(2, n + 1)])


@pytest.mark.parametrize(
    "g",
    [gen_path(300), gen_cycle(300), random_tree(300, seed=1), random_tree(300, seed=2), star(300)],
    ids=["path", "cycle", "tree1", "tree2", "star"],
)
def test_two_degenerate_graphs_never_reach_the_step(g):
    # every subgraph has a vertex of degree 2 or less, so the peel settles all
    cliques, stats = assert_peel_matches_reference(g)
    assert stats.pivot_splits == 0
    assert stats.peeled == g.n
    assert set(map(frozenset, cliques.values())) == set(bron_kerbosch(g))
    assert len(cliques) == len(bron_kerbosch(g))


def assert_peel_matches_reference(g: Graph) -> tuple[dict[int, tuple[int, ...]], SolverStats]:
    """Assert that sanitized ``find_cliques`` starts with the candidate
    growth's emissions, ids, order and members alike, and peels as many
    vertices; return its result."""
    eg = encode(g)
    cliques, stats = find_cliques(eg)
    ref, peeled = reference_peel(eg)
    assert list(cliques.items())[: len(ref)] == ref
    assert stats.peeled == peeled
    return cliques, stats


@given(cores_with_fringe())
@settings(max_examples=150, deadline=None)
def test_closed_form_peel_matches_candidate_growth(g):
    assert_peel_matches_reference(g)


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n}: vertices 1..m each joined to every one of m+1..m+n."""
    return Graph.from_edges(m + n, [(u, v) for u in range(1, m + 1) for v in range(m + 1, m + n + 1)])


def moon_moser_less_one(k: int) -> Graph:
    """Moon–Moser k without its last vertex, the benchmark's multipartite shape."""
    g = gen_moon_moser(k)
    return Graph.from_edges(g.n - 1, [(u, v) for u, v in g.edges if v != g.n])


# Complete multipartite graphs, whose parts are classes of false twins, each
# with its number of parts.
MULTIPARTITE = (
    [pytest.param(gen_moon_moser(k), k, id=f"moon_moser{k}") for k in range(1, 7)]
    + [pytest.param(moon_moser_less_one(7), 7, id="moon_moser7_less_one")]
    + [
        pytest.param(complete_bipartite(m, n), 2, id=f"k{m}_{n}")
        for m in range(1, 5)
        for n in range(m, 5)
    ]
)


@pytest.mark.parametrize("g, parts", MULTIPARTITE)
def test_false_twins_fold_into_one_tuple_per_class(g, parts):
    eg = encode(g)
    cliques, stats = find_cliques(eg)
    expected = bron_kerbosch(g)
    assert len(cliques) == len(expected)
    assert set(map(frozenset, cliques.values())) == set(expected)
    assert_records_hold(cliques, eg)
    # each graph here peels whole (K_{m,n} with m <= 2: the other side's
    # vertices have m neighbours) or not at all; unpeeled, each part folds
    # into its first vertex and the step runs on K_parts
    assert stats.peeled in (0, g.n)
    assert stats.folded == (0 if stats.peeled else g.n - parts)
    assert stats.pivot_splits <= parts
    assert find_cliques(eg, sanitize=False)[1].folded == 0


def test_folded_cliques_expand_in_product_order():
    # Moon–Moser 2 is K_{3,3}: parts {1, 2, 3} and {4, 5, 6} fold into their
    # representatives 1 and 4, and the step emits {1, 4} alone. Its
    # expansions follow itertools.product over the classes (1, 2, 3) and
    # (4, 5, 6), the last member's class varying fastest, each id the
    # product of its members' primes 2, 3, 5, 7, 11 and 13.
    cliques, stats = find_cliques(encode(gen_moon_moser(2)))
    assert list(cliques.items()) == [
        (2 * 7, (1, 4)),
        (2 * 11, (1, 5)),
        (2 * 13, (1, 6)),
        (3 * 7, (2, 4)),
        (3 * 11, (2, 5)),
        (3 * 13, (2, 6)),
        (5 * 7, (3, 4)),
        (5 * 11, (3, 5)),
        (5 * 13, (3, 6)),
    ]
    assert (stats.peeled, stats.folded, stats.pivot_splits) == (0, 4, 1)


@given(twin_blowups())
@settings(max_examples=150, deadline=None)
def test_each_step_clique_is_followed_by_its_expansions_in_product_order(g):
    # after the peel's cliques, the output is runs: a clique of class
    # representatives, each the smallest id of its open-neighbourhood class,
    # then the other choices of one vertex per member's class in
    # itertools.product order, each id the product of its members' primes
    eg = encode(g)
    cliques, _ = find_cliques(eg)
    ref, _ = reference_peel(eg)
    emitted = list(cliques.items())
    assert emitted[: len(ref)] == ref
    classes: dict[int, list[int]] = {}
    for v, (value, weight) in enumerate(eg.tuples, 1):
        classes.setdefault(weight // value, []).append(v)
    class_of = {v: members for members in classes.values() for v in members}
    rest = emitted[len(ref) :]
    while rest:
        base = rest[0][1]
        assert all(class_of[v][0] == v for v in base)
        run = [
            (math.prod(eg.tuples[v - 1].value for v in members), members)
            for members in product(*(class_of[v] for v in base))
        ]
        assert rest[: len(run)] == run
        rest = rest[len(run) :]


def test_find_cliques_has_no_cell_variables():
    # before Python 3.12 each read of a cell in the step's loop is a LOAD_DEREF
    assert solver.find_cliques.__code__.co_cellvars == ()


def _no_checked_decode(clique_id, eg):
    raise AssertionError(f"id {clique_id} was not accepted from its recorded members")


def sweep_graph(family: str, n: int, p: float | None) -> Graph:
    """The graph a sweep entry names; p is gnp's edge probability."""
    if family == "gnp":
        return gen_gnp(n, p, seed=1000 + n)
    if family == "sparse-gnp":
        return sparse_gnp(n, p, seed=1000 + n)
    if family == "false-twin-gnp":
        # G(n, p) with each vertex blown up into 1 to 4 false twins
        return twin_blowup(random.Random(n), n, p, 4 * n, max_class=4, true_share=0)
    return {
        "moon-moser": gen_moon_moser,
        "path": gen_path,
        "cycle": gen_cycle,
        "star": star,
        "wheel": wheel,
        "ba": lambda n: barabasi_albert(n, 3, seed=n),
        # BA(n, 3) plus vertex n + 1 joined to half of the others
        "ba-hub": lambda n: barabasi_albert(n, 3, seed=n, hub=n // 2),
        # BA(n, 3) plus vertex n + 1 joined to every other vertex
        "ba-apex": lambda n: barabasi_albert(n, 3, seed=n, hub=n),
        "k3n": lambda n: complete_bipartite(3, n),
    }[family](n)


@pytest.mark.parametrize("family, n, p", SWEEP)
def test_sweep_matches_bron_kerbosch(family, n, p):
    g = sweep_graph(family, n, p)
    expected = bron_kerbosch(g)
    cliques, _ = solve_graph(g)
    assert len(cliques) == len(expected)
    assert set(map(frozenset, cliques.values())) == set(expected)
    # the solver checks no record after emitting it; this does
    assert_records_hold(cliques, encode(g))


# Larger graphs for the same check, about 36 s together in CPython 3.11 on
# a shared 2-core host, each time with Bron–Kerbosch and the record check:
# gnp(80, .7) about 3.3 s and gnp(100, .6) about 2.4 s; a path or cycle of
# 10^4 about 0.1-0.15 s, settled whole by the peel, so Bron–Kerbosch and
# the record check are most of it; the star K_{1,9999} about 0.8 s, where
# the peel settles each leaf with one gcd against the hub's weight, and the
# wheel of 10^4 about 2.4 s, where nothing peels and a split walks the hub's
# neighbour list; BA(3·10^4, 3) about 1.9 s; the sparse G(2·10^4, 3/n) about
# 0.5 s, and G(2·10^4, 5/n), a 3-core of 17 070 vertices behind 2930 peeled
# ones, about 1 s; BA(10^4, 3) with a vertex of degree 5000 about 1.2 s, and
# with one joined to all 10^4 others about 4.8 s, its solve alone 1.8 s
# against 0.17 s for Bron–Kerbosch: nothing peels, and each split under the
# apex takes a gcd with its 150-kbit weight. K_{3,3·10^4} takes about 12 s, nearly all of
# it the record check, one ``%`` of a 500-kbit hub weight per clique; its
# solve is about 1.7 s, nearly all of it ``encode`` building those weights,
# as each side folds into one vertex. Moon–Moser 9 takes about 0.2 s, its
# 19 683 cliques expanded from one; and the blow-up of a G(100, .3) base
# into false-twin classes of 1 to 4, 239 vertices with 93 246 maximal
# cliques, about 1.1 s (a G(200, .3) base would have 1.5 million, too many
# for Bron–Kerbosch's sets here). Run with ``pytest -m slow``.
SLOW_SWEEP = [
    ("gnp", 80, 0.7),
    ("gnp", 100, 0.6),
    ("moon-moser", 7, None),
    ("gnp", 1000, 0.02),
    ("path", 3000, None),
    ("cycle", 3000, None),
    ("path", 10_000, None),
    ("cycle", 10_000, None),
    ("star", 10_000, None),
    ("wheel", 10_000, None),
    ("ba", 30_000, None),
    ("sparse-gnp", 20_000, 3 / 20_000),
    ("sparse-gnp", 20_000, 5 / 20_000),
    ("ba-hub", 10_000, None),
    ("ba-apex", 10_000, None),
    ("k3n", 30_000, None),
    ("moon-moser", 9, None),
    ("false-twin-gnp", 100, 0.3),
]


@pytest.mark.slow
@pytest.mark.parametrize("family, n, p", SLOW_SWEEP)
def test_slow_sweep_matches_bron_kerbosch(family, n, p):
    test_sweep_matches_bron_kerbosch(family, n, p)


@pytest.mark.parametrize(
    "bad_id, message",
    [
        (35, "id 35 decodes to a non-clique: vertices 3 and 4 are not adjacent"),
        (210, "vertices 1 and 4 are not adjacent"),  # {1,2,3,4}: the first bad pair
        (4, "malformed clique id 4"),  # 2 * 2, not squarefree
        (11, "malformed clique id 11"),  # no prime of the basis: fails at the leaf
    ],
)
@pytest.mark.parametrize("sanitized", [True, False])
def test_solve_graph_rejects_injected_ids(paw, bad_id, message, sanitized):
    # solve_graph checks each id where it is emitted, so an id the
    # enumeration never emitted is added to its list, in either mode, for
    # sanitize, which runs the same checked decode a faulty raw emission does
    eg = encode(paw)
    ids, _ = find_cliques(eg, sanitize=sanitized)
    with pytest.raises(IntegrityError, match=message):
        sanitize([*ids, bad_id], eg)


def asymmetric_encoding(g: Graph) -> EncodedGraph:
    """``encode`` of ``ASYMMETRIC`` with a fault: vertex 1's weight 6 and both
    neighbour lists join vertices 1 and 2, but vertex 2's weight 105 lacks
    vertex 1's prime."""
    eg = encode(g)
    tuples = list(eg.tuples)
    tuples[0] = WV(2, 6)
    return EncodedGraph(tuple(tuples), eg.assignment, ([2], [3, 4, 1], [2], [2]))


ASYMMETRIC = Graph.from_edges(4, [(2, 3), (2, 4)])


def test_a_fault_in_the_encoding_fails_the_raw_emission_test(monkeypatch):
    # raw, vertex 1 falls into the pivot side of vertex 2 and comes out as
    # 6 = {1, 2}; the gcd of their weights, 3, is not divided by 6
    monkeypatch.setattr(encoding, "encode", asymmetric_encoding)
    with pytest.raises(
        IntegrityError, match="id 6 decodes to a non-clique: vertices 1 and 2 are not adjacent"
    ):
        solve_graph(ASYMMETRIC, sanitize=False)
    # sanitized, the peel settles all four vertices and the maximality test
    # never emits 6
    cliques, _ = solve_graph(ASYMMETRIC)
    assert list(cliques.items()) == [(15, (3, 2)), (21, (4, 2))]


@given(graphs(max_n=9), st.booleans())
@settings(max_examples=100, deadline=None)
def test_recorded_members_agree_with_checked_decode(g, sanitized):
    eg = encode(g)
    ids, _ = find_cliques(eg, sanitize=sanitized)
    assert_records_hold(ids, eg)
    for clique_id, members in ids.items():
        assert sorted(members) == list(solver._decode_clique_checked(clique_id, eg))


def test_recorded_members_decode_cliques_without_the_checked_decode(monkeypatch):
    # only a raw id that fails the emission test reaches the checked decode;
    # the 129 non-maximal raw ids here pass it like the maximal ones
    g = gen_gnp(40, 0.3, seed=5)
    monkeypatch.setattr(solver, "_decode_clique_checked", _no_checked_decode)
    cliques, _ = solve_graph(g)
    assert set(map(frozenset, cliques.values())) == set(bron_kerbosch(g))
    assert len(cliques) == len(bron_kerbosch(g))
    raw, _ = solve_graph(g, sanitize=False)
    assert len(raw) == len(cliques) + 129
    assert all(is_clique(g, set(c)) for c in raw.values())


def test_solve_graph_keeps_no_state_between_enumerations(monkeypatch):
    # an enumeration of another graph after A's must not change A's result
    a = gen_gnp(30, 0.3, seed=11)
    b = gen_gnp(30, 0.5, seed=12)
    real = solver.find_cliques

    def interleaved(q, *, sanitize=True):
        result = real(q, sanitize=sanitize)
        real(encode(b), sanitize=sanitize)
        return result

    monkeypatch.setattr(solver, "find_cliques", interleaved)
    cliques, _ = solve_graph(a)
    assert set(map(frozenset, cliques.values())) == set(bron_kerbosch(a))
    assert len(cliques) == len(bron_kerbosch(a))
    assert_records_hold(cliques, encode(a))


def complete_with_pendants(k: int) -> Graph:
    """K_k on vertices 1..k, with a pendant vertex k + u on each vertex u.

    Its k + 1 maximal cliques nest the pivot side about k deep.
    """
    clique = [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)]
    return Graph.from_edges(2 * k, clique + [(u, u + k) for u in range(1, k + 1)])


RECURSION_LIMIT_SCRIPT = """
import sys
from primeclique.encoding import Graph
from primeclique.graph_io import gen_path
from primeclique.solver import solve_graph

sys.setrecursionlimit(150)
assert len(solve_graph(gen_path(1200))[0]) == 1199
k = 200
clique = [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)]
g = Graph.from_edges(2 * k, clique + [(u, u + k) for u in range(1, k + 1)])
assert len(solve_graph(g)[0]) == k + 1
print(sys.getrecursionlimit())
"""


def test_solve_runs_under_a_small_recursion_limit_and_keeps_it():
    # a path nests the pivot-free side n deep, K_200 plus pendants the pivot
    # side 200 deep; neither may need frames or change the global limit
    src = str(Path(primeclique.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", RECURSION_LIMIT_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["150"]


GOLDEN_GRAPHS = {
    "raw_extras": raw_extras_graph,
    "g5": lambda: Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5)]),
    "path8": lambda: gen_path(8),
    "moon_moser2": lambda: gen_moon_moser(2),
    "k4_pendants": lambda: complete_with_pendants(4),
    "gnp12": lambda: gen_gnp(12, 0.5, seed=3),
}

# Literal id lists in emission order and SolverStats fields in declaration
# order (merges, pivot_splits, case1_count, case2_count, max_weight_bits), as
# the recursive solver produced them, then the sanitized run's SolverStats
# with ``pruned``, ``peeled`` and ``folded`` last. The peel settles
# raw_extras, g5 and path8 whole, and never emits 15 = {2, 3} of raw_extras,
# which vertex 1 extends; on k4_pendants it settles the pendants and the
# guard prunes the K_4 left. moon_moser2 folds each part of three into its
# first vertex, so the step splits once, on K_2. Test ids name the pivot
# order, as above.
LITERAL_GOLDEN = [
    ("raw_extras", [34, 30, 26, 55, 15, 21], (2, 5, 3, 3, 13), (0, 0, 0, 0, 13, 0, 7)),
    ("g5", [33, 30, 14], (2, 2, 2, 1, 9), (0, 0, 0, 0, 9, 0, 5)),
    ("path8", [323, 221, 143, 77, 35, 15, 6], (1, 6, 3, 3, 13), (0, 0, 0, 0, 13, 0, 8)),
    ("moon_moser2", [65, 55, 35, 39, 33, 21, 26, 22, 14], (0, 9, 3, 6, 13), (0, 1, 0, 1, 13, 1, 0, 4)),
    ("k4_pendants", [210, 133, 85, 30, 39, 6, 22], (4, 6, 3, 6, 12), (2, 1, 0, 3, 12, 1, 4)),
    ("gnp12", [144739, 3689, 19499, 9269, 14007, 1311, 3335, 1495, 7733, 6919, 1254, 286, 609, 119, 174], (7, 16, 13, 19, 31), (5, 19, 11, 25, 31, 1)),
]


@pytest.mark.parametrize(
    "name, ids, stats, sanitized",
    LITERAL_GOLDEN,
    ids=[f"{name}-descending" for name, *_ in LITERAL_GOLDEN],
)
def test_literal_output_and_stats_are_pinned(name, ids, stats, sanitized):
    eg = encode(GOLDEN_GRAPHS[name]())
    literal, literal_stats = find_cliques(eg, sanitize=False)
    assert list(literal) == ids
    assert literal_stats == SolverStats(*stats)  # pruned and peeled are 0
    exact, exact_stats = find_cliques(eg)
    assert frozenset(exact) == sanitize(ids, eg)
    assert exact_stats == SolverStats(*sanitized)

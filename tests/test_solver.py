import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _strategies import graphs
import primeclique
from primeclique import solver
from primeclique.encoding import Graph, WeightedVertex, decode_clique, encode
from primeclique.errors import IntegrityError
from primeclique.graph_io import gen_complete, gen_cycle, gen_gnp, gen_moon_moser, gen_path
from primeclique.oracle import bron_kerbosch, diff, is_clique, is_maximal
from primeclique.solver import (
    SolverConfig,
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
    assert sort_by_weight(q, "ascending") == q


def test_sort_by_weight_rejects_unknown_order():
    with pytest.raises(ValueError):
        sort_by_weight([], "sideways")


def test_merge_equal_weights():
    q = [WV(2, 30), WV(3, 30), WV(5, 30)]
    common_of = {t.value: t.weight for t in q}
    merged = merge_equal_weights(q, common_of)
    assert merged == [WV(30, 30)]
    assert len(q) - len(merged) == 2  # the merge count _enumerate records
    # each merged value maps to the gcd of its parts' entries
    assert common_of == {2: 30, 3: 30, 5: 30, 6: 30, 30: 30}
    common_of = {2: 6, 3: 6, 5: 15}
    assert merge_equal_weights([WV(2, 6), WV(3, 6), WV(5, 15)], common_of) == [WV(6, 6), WV(5, 15)]
    assert common_of == {2: 6, 3: 6, 5: 15, 6: 6}
    common_of = {2: 6, 5: 15}
    assert merge_equal_weights([WV(2, 6), WV(5, 15)], common_of) == [WV(2, 6), WV(5, 15)]
    assert common_of == {2: 6, 5: 15}
    # parts whose input weights differ (a merge inside a subproblem): the
    # entry is their common neighborhood, not the current weight
    common_of = {2: 42, 3: 66}
    assert merge_equal_weights([WV(2, 6), WV(3, 6)], common_of) == [WV(6, 6)]
    assert common_of[6] == 6


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
    ids, _stats = find_cliques(encode(g).tuples)
    assert ids == frozenset(expected_ids)
    # independent enumerator agrees
    decoded = {frozenset(decode_clique(i, encode(g).assignment)) for i in ids}
    assert decoded == set(bron_kerbosch(g))


def test_find_cliques_empty_and_singleton():
    assert find_cliques([])[0] == frozenset()
    assert find_cliques([WV(2, 2)])[0] == frozenset({2})


def test_complete_graph_collapses_in_one_call():
    for n in (2, 5, 9):
        g = gen_complete(n)
        ids, stats = find_cliques(encode(g).tuples)
        assert len(ids) == 1
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
    raw, _ = find_cliques(eg.tuples, SolverConfig(sanitize=False))
    assert isinstance(raw, list)
    assert 15 in raw  # {2, 3}: primes 3 * 5
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


def test_drop_contained_ids():
    assert drop_contained_ids([30, 6, 6, 21]) == frozenset({30, 21})
    assert drop_contained_ids([]) == frozenset()


def test_find_cliques_sanitize_matches_full_sanitize(g5):
    eg = encode(g5)
    pruned, _ = find_cliques(eg.tuples)
    raw, _ = find_cliques(eg.tuples, SolverConfig(sanitize=False))
    assert pruned == sanitize(raw, eg)


def test_solve_graph_decodes_in_id_order(g5):
    # ids 14 < 30 < 33 decode to {1,4}, {1,2,3}, {2,5}
    cliques, _ = solve_graph(g5)
    assert cliques == [frozenset({1, 4}), frozenset({1, 2, 3}), frozenset({2, 5})]


def test_solve_graph_raw_keeps_emission_order():
    g = raw_extras_graph()
    cliques, _ = solve_graph(g, SolverConfig(sanitize=False))
    assert frozenset({2, 3}) in cliques
    assert len(cliques) == 6


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
    q = merge_equal_weights(sort_by_weight(tuples), {t.value: t.weight for t in tuples})
    if len(q) < 2:
        return
    left, right, _ = partition_by_pivot(q[1:], q[0])
    assert len(left) < len(q)
    assert len(right) < len(q)


@given(graphs(min_n=2, max_n=12))
@settings(max_examples=100)
def test_pivot_multiplication_preserves_cliques(g):
    eg = encode(g)
    q = merge_equal_weights(sort_by_weight(eg.tuples), {t.value: t.weight for t in eg.tuples})
    if len(q) < 2:
        return
    pivot = q[0]
    left, _, _ = partition_by_pivot(q[1:], pivot)
    ids, _ = find_cliques(left, SolverConfig(sanitize=False))
    for clique_id in ids:
        members = decode_clique(clique_id * pivot.value, eg.assignment)
        assert is_clique(g, members)


@given(graphs(max_n=11))
@settings(max_examples=150, deadline=None)
def test_sanitized_output_is_exactly_the_maximal_cliques(g):
    cliques, _ = solve_graph(g)
    assert diff(cliques, bron_kerbosch(g)).equal
    for c in cliques:
        assert is_maximal(g, set(c))


def test_pivot_orders_agree_on_corpus():
    asc = SolverConfig(pivot_order="ascending")
    for i in range(60):
        g = gen_gnp(1 + (i % 10), [0.2, 0.5, 0.8][i % 3], seed=500 + i)
        got_asc, stats_asc = solve_graph(g, asc)
        got_desc, _ = solve_graph(g)
        assert set(got_asc) == set(got_desc)
        # ascending pivots make the contained-neighborhood case unreachable:
        # a divisor of the minimum weight would equal it, but weights are
        # distinct after merging
        assert stats_asc.case1_count == 0


def test_raw_output_has_no_duplicate_ids():
    # not promised by the recursion itself, but observed everywhere;
    # pivot-side ids carry the pivot prime, pivot-free ids never do
    for i in range(60):
        g = gen_gnp(1 + (i % 12), [0.3, 0.6, 0.9][i % 3], seed=800 + i)
        raw, _ = find_cliques(encode(g).tuples, SolverConfig(sanitize=False))
        assert len(raw) == len(set(raw))


@given(graphs(max_n=12), st.sampled_from(["descending", "ascending"]))
@settings(max_examples=200, deadline=None)
def test_exact_emission_equals_sanitized_literal_output(g, order):
    eg = encode(g)
    exact, exact_stats = find_cliques(eg.tuples, SolverConfig(pivot_order=order))
    literal, literal_stats = find_cliques(eg.tuples, SolverConfig(pivot_order=order, sanitize=False))
    assert isinstance(exact, frozenset)
    assert exact == sanitize(literal, eg)
    # the sanitized emission is a subsequence of this list, so it holds no
    # duplicates either
    assert len(literal) == len(set(literal))
    assert not any(b % a == 0 for a in exact for b in exact if a != b)
    # maximal exactly when the members' input weights have the id as gcd
    weights = {c: [eg.tuples[v - 1].weight for v in decode_clique(c, eg.assignment)] for c in literal}
    assert exact == {c for c in literal if math.gcd(*weights[c]) == c}
    # the per-level filter drops ids, never calls
    assert exact_stats == literal_stats


SWEEP = (
    [("gnp", n, p) for n in (20, 40, 80) for p in (0.1, 0.3, 0.5)]
    + [("gnp", n, 0.7) for n in (20, 40)]
    + [("moon-moser", k, None) for k in range(1, 7)]
    + [("path", 500, None), ("cycle", 500, None)]
)


@pytest.mark.parametrize("family, n, p", SWEEP)
def test_sweep_matches_bron_kerbosch(family, n, p):
    if family == "gnp":
        g = gen_gnp(n, p, seed=1000 + n)
    else:
        g = {"moon-moser": gen_moon_moser, "path": gen_path, "cycle": gen_cycle}[family](n)
    expected = bron_kerbosch(g)
    for order in ("descending", "ascending"):
        cliques, _ = solve_graph(g, SolverConfig(pivot_order=order))
        assert len(cliques) == len(expected)
        assert set(cliques) == set(expected)


# Larger graphs for the same check, about 40 s together in CPython 3.11
# (gnp(80, .7) alone about 30 s): run with ``pytest -m slow``.
SLOW_SWEEP = [
    ("gnp", 80, 0.7),
    ("moon-moser", 7, None),
    ("gnp", 1000, 0.02),
    ("path", 3000, None),
    ("cycle", 3000, None),
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
    ],
)
@pytest.mark.parametrize("sanitized", [True, False])
def test_solve_graph_rejects_injected_ids(paw, monkeypatch, bad_id, message, sanitized):
    def injected(q, config=None):
        ids, stats = find_cliques(q, config)
        return [*ids, bad_id], stats

    monkeypatch.setattr(solver, "find_cliques", injected)
    with pytest.raises(IntegrityError, match=message):
        solve_graph(paw, SolverConfig(sanitize=sanitized))


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
# order (recursive_calls, merges, pivot_splits, case1_count, case2_count,
# gcd_calls, max_weight_bits), as the recursive solver produced them.
LITERAL_GOLDEN = [
    ("raw_extras", "descending", [34, 30, 26, 55, 15, 21], (11, 2, 5, 3, 3, 3, 13)),
    ("raw_extras", "ascending", [21, 26, 30, 34, 10, 55], (11, 2, 5, 0, 6, 6, 13)),
    ("g5", "descending", [33, 30, 14], (5, 2, 2, 2, 1, 1, 9)),
    ("g5", "ascending", [14, 30, 33], (5, 2, 2, 0, 2, 2, 9)),
    ("path8", "descending", [323, 221, 143, 77, 35, 15, 6], (13, 1, 6, 3, 3, 3, 13)),
    ("path8", "ascending", [6, 15, 35, 77, 143, 221, 323], (13, 1, 6, 0, 6, 6, 13)),
    ("moon_moser2", "descending", [65, 55, 35, 39, 33, 21, 26, 22, 14], (19, 0, 9, 3, 6, 6, 13)),
    ("moon_moser2", "ascending", [14, 21, 35, 22, 26, 33, 55, 39, 65], (17, 1, 8, 0, 8, 8, 13)),
    ("k4_pendants", "descending", [210, 133, 85, 30, 39, 6, 22], (13, 4, 6, 3, 6, 6, 12)),
    ("k4_pendants", "ascending", [22, 39, 85, 133, 210], (9, 3, 4, 0, 4, 4, 12)),
    ("gnp12", "descending", [144739, 3689, 19499, 9269, 14007, 1311, 3335, 1495, 7733, 6919, 1254, 286, 609, 119, 174], (33, 7, 16, 13, 19, 19, 31)),
    ("gnp12", "ascending", [1495, 3335, 286, 9269, 174, 1254, 627, 6919, 7733, 703, 1311, 14007, 19499, 3689, 144739], (29, 12, 14, 0, 27, 27, 31)),
]


@pytest.mark.parametrize(
    "name, order, ids, stats", LITERAL_GOLDEN, ids=[f"{name}-{order}" for name, order, *_ in LITERAL_GOLDEN]
)
def test_literal_output_and_stats_are_pinned(name, order, ids, stats):
    eg = encode(GOLDEN_GRAPHS[name]())
    literal, literal_stats = find_cliques(eg.tuples, SolverConfig(pivot_order=order, sanitize=False))
    assert literal == ids
    assert literal_stats == SolverStats(*stats)
    exact, exact_stats = find_cliques(eg.tuples, SolverConfig(pivot_order=order))
    assert exact == sanitize(ids, eg)
    assert exact_stats == literal_stats

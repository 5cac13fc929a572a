from itertools import combinations

import pytest
from hypothesis import given, settings

from _reference import is_clique, is_maximal
from _strategies import graphs
from primeclique.encoding import Graph
from primeclique.graph_io import gen_complete, gen_moon_moser
from primeclique.oracle import bron_kerbosch, diff


def exhaustive_maximal_cliques(g: Graph) -> set[frozenset[int]]:
    """Reference of last resort: scan all vertex subsets. Only for tiny n."""
    cliques = [
        frozenset(s)
        for size in range(1, g.n + 1)
        for s in combinations(g.vertices(), size)
        if is_clique(g, set(s))
    ]
    return {
        c for c in cliques if not any(c < other for other in cliques)
    }


def test_bron_kerbosch_p3(p3):
    assert bron_kerbosch(p3) == [frozenset({1, 2}), frozenset({2, 3})]


def test_bron_kerbosch_k4():
    assert bron_kerbosch(gen_complete(4)) == [frozenset({1, 2, 3, 4})]


def test_bron_kerbosch_moon_moser_two_parts():
    cliques = bron_kerbosch(gen_moon_moser(2))
    assert len(cliques) == 9
    assert all(len(c) == 2 for c in cliques)


def test_bron_kerbosch_empty_graph():
    assert bron_kerbosch(Graph(0)) == []
    assert bron_kerbosch(Graph(3)) == [frozenset({1}), frozenset({2}), frozenset({3})]


def test_bron_kerbosch_deterministic(g5):
    assert bron_kerbosch(g5) == bron_kerbosch(g5)
    assert bron_kerbosch(g5) == sorted(bron_kerbosch(g5), key=sorted)


@given(graphs(max_n=8))
@settings(max_examples=150)
def test_bron_kerbosch_matches_exhaustive_enumeration(g):
    assert set(bron_kerbosch(g)) == exhaustive_maximal_cliques(g)


@given(graphs(max_n=10))
@settings(max_examples=100)
def test_bron_kerbosch_members_maximal_and_incomparable(g):
    cliques = bron_kerbosch(g)
    for c in cliques:
        assert is_maximal(g, set(c))
    for a in cliques:
        for b in cliques:
            assert not (a < b)


def test_is_clique(p3):
    assert is_clique(p3, {1, 2})
    assert not is_clique(p3, {1, 3})
    assert is_clique(p3, {2})
    assert is_clique(p3, set())


def test_is_clique_rejects_unknown_vertex(p3):
    with pytest.raises(ValueError, match="not in graph"):
        is_clique(p3, {1, 9})


def test_is_maximal(p3, k3):
    assert not is_maximal(k3, {1, 2})
    assert is_maximal(k3, {1, 2, 3})
    assert is_maximal(p3, {1, 2})


def test_is_maximal_requires_clique(p3):
    with pytest.raises(ValueError, match="not a clique"):
        is_maximal(p3, {1, 3})


def test_diff_identical():
    cliques = {frozenset({1, 2}), frozenset({2, 3})}
    report = diff(cliques, cliques)
    assert report.equal
    assert report.matched == 2
    assert report.missing == frozenset()
    assert report.extra == frozenset()


def test_diff_missing_and_extra():
    oracle_out = {frozenset({1, 2, 4}), frozenset({2, 3})}
    solver_out = {frozenset({1, 2, 4}), frozenset({1, 2})}
    report = diff(solver_out, oracle_out)
    assert not report.equal
    assert report.missing == frozenset({frozenset({2, 3})})
    assert report.extra == frozenset({frozenset({1, 2})})
    assert report.matched == 1
    assert not report.missing & report.extra

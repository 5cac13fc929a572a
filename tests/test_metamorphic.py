"""Metamorphic checks: transforming the input transforms the cliques predictably.

None of these consult an oracle. Each solves a graph and a transformed
copy and relates the two outputs, so they catch errors that a wrong
reference would share.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _strategies import barabasi_albert, graphs
from primeclique.encoding import Graph
from primeclique.solver import solve_graph


def clique_set(g: Graph) -> set[frozenset[int]]:
    cliques, _ = solve_graph(g)
    found = set(map(frozenset, cliques.values()))
    assert len(cliques) == len(found)
    return found


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_relabelling_relabels_the_cliques(data):
    g = data.draw(graphs(max_n=12))
    perm = data.draw(st.permutations(range(1, g.n + 1)))
    label = dict(zip(g.vertices(), perm))
    h = Graph.from_edges(g.n, [(label[u], label[v]) for u, v in g.edges])
    assert clique_set(h) == {frozenset(label[v] for v in c) for c in clique_set(g)}


@pytest.mark.slow
def test_relabelling_a_barabasi_albert_graph_relabels_its_cliques():
    # BA(3·10^4, 3), a heavy-tailed degree sequence: about 3.1 s in CPython 3.11
    g = barabasi_albert(30_000, 3, seed=30_000)
    perm = list(g.vertices())
    random.Random(30_000).shuffle(perm)
    label = dict(zip(g.vertices(), perm))
    h = Graph.from_edges(g.n, [(label[u], label[v]) for u, v in g.edges])
    assert clique_set(h) == {frozenset(label[v] for v in c) for c in clique_set(g)}


@given(graphs(min_n=1, max_n=12))
@settings(max_examples=150, deadline=None)
def test_universal_vertex_joins_every_clique(g):
    u = g.n + 1
    h = Graph.from_edges(u, [*g.edges, *((v, u) for v in g.vertices())])
    assert clique_set(h) == {c | {u} for c in clique_set(g)}


@given(graphs(max_n=12))
@settings(max_examples=150, deadline=None)
def test_isolated_vertex_adds_one_singleton(g):
    u = g.n + 1
    h = Graph(u, g.edges)
    assert clique_set(h) == clique_set(g) | {frozenset({u})}

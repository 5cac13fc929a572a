"""Metamorphic checks: transforming the input transforms the cliques predictably.

None of these consult an oracle. Each solves a graph and a transformed
copy and relates the two outputs, so they catch errors that a wrong
reference would share.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from _strategies import graphs
from primeclique.encoding import Graph, PrimeAssignment
from primeclique.primes import first_n_primes
from primeclique.solver import solve_graph


def clique_set(g: Graph, assignment: PrimeAssignment | None = None) -> set[frozenset[int]]:
    cliques, _ = solve_graph(g, assignment=assignment)
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


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_other_primes_give_the_same_cliques(data):
    g = data.draw(graphs(max_n=12))
    pool = first_n_primes(40)
    primes = data.draw(st.lists(st.sampled_from(pool), min_size=g.n, max_size=g.n, unique=True))
    assert clique_set(g, PrimeAssignment(tuple(primes))) == clique_set(g)


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

import math

import pytest
from hypothesis import given, settings

from _strategies import graphs
from primeclique.encoding import (
    EncodedGraph,
    Graph,
    PrimeAssignment,
    WeightedVertex,
    decode_clique,
    decode_graph,
    encode,
    has_edge,
)
from primeclique.errors import IntegrityError
from primeclique.primes import factor_over_basis


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(3, [(4, 0)])
    with pytest.raises(ValueError, match="bad edge"):
        Graph(3, frozenset({(2, 1)}))


def test_graph_collapses_duplicate_edges():
    g = Graph.from_edges(3, [(1, 2), (2, 1), (1, 2)])
    assert g.edges == frozenset({(1, 2)})


def test_assignment_default_and_validation():
    assert PrimeAssignment.default(4).primes == (2, 3, 5, 7)
    with pytest.raises(ValueError, match="distinct"):
        PrimeAssignment((2, 2))
    with pytest.raises(ValueError, match="not prime"):
        PrimeAssignment((2, 9))


def test_encode_p3_weights(p3):
    eg = encode(p3)
    assert eg.tuples == (
        WeightedVertex(2, 6),
        WeightedVertex(3, 30),
        WeightedVertex(5, 15),
    )


def test_encode_k3_weights(k3):
    eg = encode(k3)
    assert [t.weight for t in eg.tuples] == [30, 30, 30]


def test_encode_isolated_vertex():
    eg = encode(Graph(1))
    assert eg.tuples == (WeightedVertex(2, 2),)


def test_encode_requires_full_assignment(p3):
    with pytest.raises(ValueError, match="covers"):
        encode(p3, PrimeAssignment((2, 3)))


def test_has_edge_p3(p3):
    eg = encode(p3)
    assert has_edge(eg, 1, 2)
    assert has_edge(eg, 2, 1)
    assert not has_edge(eg, 1, 3)
    assert not has_edge(eg, 2, 2)


def test_decode_clique():
    assert decode_clique(30, PrimeAssignment((2, 3, 5))) == {1, 2, 3}
    assert decode_clique(1, PrimeAssignment((2, 3, 5))) == set()
    assert decode_clique(21, PrimeAssignment((2, 3, 5, 7))) == {2, 4}


def test_decode_clique_malformed():
    with pytest.raises(IntegrityError, match="malformed"):
        decode_clique(22, PrimeAssignment((2, 3, 5)))


def test_decode_graph_round_trip(p3, k3):
    assert decode_graph(encode(p3)) == p3
    assert decode_graph(encode(k3)) == k3


def test_decode_graph_detects_corruption(p3):
    eg = encode(p3)
    # Drop vertex 1's prime from vertex 2's weight: adjacency now holds in
    # one direction only.
    tuples = list(eg.tuples)
    tuples[1] = WeightedVertex(3, 15)
    with pytest.raises(IntegrityError, match="asymmetric"):
        decode_graph(EncodedGraph(tuple(tuples), eg.assignment))


@given(graphs(max_n=12))
@settings(max_examples=150)
def test_encode_symmetry_and_closure(g):
    eg = encode(g)
    for u in g.vertices():
        assert eg.tuples[u - 1].weight % eg.tuples[u - 1].value == 0
        for v in range(u + 1, g.n + 1):
            assert has_edge(eg, u, v) == has_edge(eg, v, u)


@given(graphs(max_n=12))
@settings(max_examples=100)
def test_encode_weights_squarefree_and_track_degree(g):
    eg = encode(g)
    adj = g.adjacency()
    basis = list(eg.assignment.primes)
    for u in g.vertices():
        factors = factor_over_basis(eg.tuples[u - 1].weight, basis)
        # residue 1 with one division per prime means squarefree
        assert math.prod(basis[i] for i in factors) == eg.tuples[u - 1].weight
        assert len(factors) == len(adj[u]) + 1


@given(graphs(max_n=12))
@settings(max_examples=100)
def test_gcd_of_weights_is_common_closed_neighborhood(g):
    eg = encode(g)
    adj = g.adjacency()
    for i in g.vertices():
        for j in g.vertices():
            expected = (adj[i] | {i}) & (adj[j] | {j})
            shared = math.gcd(eg.tuples[i - 1].weight, eg.tuples[j - 1].weight)
            assert decode_clique(shared, eg.assignment) == expected


@given(graphs(max_n=12))
@settings(max_examples=200)
def test_decode_inverts_encode(g):
    assert decode_graph(encode(g)) == g

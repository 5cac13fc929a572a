import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import decode_graph, has_edge
from _strategies import graphs
from primeclique.encoding import (
    Graph,
    PrimeAssignment,
    decode_clique,
    encode,
)
from primeclique.errors import IntegrityError
from primeclique.primes import first_n_primes


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


def test_assignment_default():
    assert PrimeAssignment.default(4).primes == (2, 3, 5, 7)


def test_encode_p3_weights(p3):
    eg = encode(p3)
    assert eg.values == (1, 2, 3, 5)
    assert eg.weights == (1, 6, 30, 15)


def test_encode_k3_weights(k3):
    eg = encode(k3)
    assert eg.weights == (1, 30, 30, 30)


def test_encode_isolated_vertex():
    eg = encode(Graph(1))
    assert (eg.values, eg.weights, eg.neighbours) == ((1, 2), (1, 2), ([], []))


def test_encode_empty_graph_is_slot_0_alone():
    eg = encode(Graph(0))
    assert (eg.values, eg.weights, eg.neighbours) == ((1,), (1,), ([],))
    assert eg.assignment.primes == ()


def test_has_edge_p3(p3):
    eg = encode(p3)
    assert has_edge(eg, 1, 2)
    assert has_edge(eg, 2, 1)
    assert not has_edge(eg, 1, 3)
    assert not has_edge(eg, 2, 2)


def test_decode_clique():
    assert decode_clique(30, PrimeAssignment((2, 3, 5))) == {1, 2, 3}
    assert decode_clique(30, PrimeAssignment((2, 3, 5, 7))) == {1, 2, 3}
    assert decode_clique(1, PrimeAssignment((2, 3, 5))) == set()
    assert decode_clique(21, PrimeAssignment((2, 3, 5, 7))) == {2, 4}


def test_decode_clique_malformed():
    assignment = PrimeAssignment((2, 3, 5))
    for bad_id, message in [
        (22, "malformed clique id 22: residue 11 is not 1"),  # 11 is no vertex's prime
        (12, "malformed clique id 12: residue 2 is not 1"),  # 2 * 2 * 3, not squarefree
        (0, "malformed clique id 0: value must be >= 1, got 0"),
        (-6, "malformed clique id -6: value must be >= 1, got -6"),
    ]:
        with pytest.raises(IntegrityError, match=message):
            decode_clique(bad_id, assignment)


BASIS = PrimeAssignment.default(20)


@given(st.sets(st.integers(min_value=1, max_value=20)))
def test_decode_clique_inverts_product(vertices):
    assert decode_clique(math.prod(BASIS.primes[v - 1] for v in vertices), BASIS) == vertices


def test_decode_graph_round_trip(p3, k3):
    assert decode_graph(encode(p3)) == p3
    assert decode_graph(encode(k3)) == k3


def test_decode_graph_detects_corruption(p3):
    eg = encode(p3)
    # Drop vertex 1's prime from vertex 2's weight: adjacency now holds in
    # one direction only.
    assert eg.weights[2] == 30
    faulty = dataclasses.replace(eg, weights=(1, 6, 15, 15))
    with pytest.raises(IntegrityError, match="asymmetric"):
        decode_graph(faulty)


@given(graphs(max_n=12))
@settings(max_examples=150)
def test_encode_builds_weighted_vertices_and_neighbour_lists_in_edge_order(g):
    eg = encode(g)
    # each table is indexed by vertex id, slot 0 a placeholder: value 1,
    # weight 1 and no neighbour
    primes = first_n_primes(g.n)
    assert eg.values == (1, *primes)
    assert eg.assignment.primes == tuple(primes)
    adj = g.adjacency()
    assert eg.weights == (1, *(math.prod(primes[v - 1] for v in adj[u] | {u}) for u in g.vertices()))
    assert all(type(w) is int for w in eg.weights)
    # a plain loop over g.edges, in its iteration order: the peel's choice
    # of a vertex's first and second neighbours depends on it
    neighbours = {u: [] for u in g.vertices()}
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    assert eg.neighbours == ([], *neighbours.values())


@given(graphs(max_n=12))
@settings(max_examples=150)
def test_encode_symmetry_and_closure(g):
    eg = encode(g)
    for u in g.vertices():
        assert eg.weights[u] % eg.values[u] == 0
        for v in range(u + 1, g.n + 1):
            assert has_edge(eg, u, v) == has_edge(eg, v, u)


@given(graphs(max_n=12))
@settings(max_examples=100)
def test_encode_weights_squarefree_and_track_degree(g):
    eg = encode(g)
    adj = g.adjacency()
    primes = eg.assignment.primes
    for u in g.vertices():
        members = decode_clique(eg.weights[u], eg.assignment)
        # residue 1 with one division per prime means squarefree
        assert math.prod(primes[v - 1] for v in members) == eg.weights[u]
        assert len(members) == len(adj[u]) + 1


@given(graphs(max_n=12))
@settings(max_examples=100)
def test_gcd_of_weights_is_common_closed_neighborhood(g):
    eg = encode(g)
    adj = g.adjacency()
    for i in g.vertices():
        for j in g.vertices():
            expected = (adj[i] | {i}) & (adj[j] | {j})
            shared = math.gcd(eg.weights[i], eg.weights[j])
            assert decode_clique(shared, eg.assignment) == expected


@given(graphs(max_n=12))
@settings(max_examples=200)
def test_decode_inverts_encode(g):
    assert decode_graph(encode(g)) == g

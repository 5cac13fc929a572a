"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the recorded measurements.
"""

import csv
import math
import time

from _reference import decode_graph, has_edge, is_maximal
from conftest import FIXTURES
from primeclique.cli import main
from primeclique.encoding import Graph, decode_clique, encode
from primeclique.graph_io import gen_complete, gen_gnp, gen_moon_moser, write_dimacs
from primeclique.oracle import bron_kerbosch, diff
from primeclique.solver import find_cliques, solve_graph

P_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def corpus():
    """500 seeded sparse-to-dense random graphs, n in 1..12."""
    for i in range(500):
        n = 1 + (i % 12)
        p = P_GRID[(i // 12) % 5]
        yield gen_gnp(n, p, seed=1000 + i)


def big_corpus():
    """1000 seeded random graphs, n in 1..50, for the encoding invariants."""
    for i in range(1000):
        n = 1 + (i % 50)
        p = P_GRID[i % 5]
        yield gen_gnp(n, p, seed=2000 + i)


def test_criterion_1_hand_trace_fixtures():
    start = time.perf_counter()
    fixtures = [
        ("K3", Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)]), {30}),
        ("P3", Graph.from_edges(3, [(1, 2), (2, 3)]), {6, 15}),
        (
            "five-vertex",
            Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5)]),
            {30, 33, 14},
        ),
        ("two-isolated", Graph(2), {2, 3}),
    ]
    for name, g, expected in fixtures:
        ids, _ = find_cliques(encode(g))
        assert frozenset(ids) == frozenset(expected), name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: PASS hand-trace fixtures exact ({elapsed:.3f}s)")


def test_criterion_2_oracle_soundness():
    start = time.perf_counter()
    checked = 0
    for g in corpus():
        cliques, _ = solve_graph(g)
        for c in cliques.values():
            assert is_maximal(g, set(c)), (g, sorted(c))
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 2: PASS {checked} sanitized cliques maximal on 500 graphs"
        f" ({elapsed:.1f}s)"
    )


def test_criterion_3_oracle_equality(tmp_path):
    start = time.perf_counter()
    divergent = []
    for g in corpus():
        cliques, _ = solve_graph(g)
        report = diff(cliques.values(), bron_kerbosch(g))
        if not report.equal:
            divergent.append((g, report))
    if divergent:
        # keep the smallest counterexample around for regression work
        smallest = min(divergent, key=lambda item: (item[0].n, len(item[0].edges)))
        fixture = FIXTURES / "divergence.dimacs"
        fixture.write_text(write_dimacs(smallest[0]))
        raise AssertionError(
            f"{len(divergent)} divergences; smallest written to {fixture}: "
            f"{smallest[1]}"
        )
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 3: PASS solver equals Bron-Kerbosch on 500 graphs ({elapsed:.1f}s)")


def test_criterion_4_complete_graph_collapse():
    start = time.perf_counter()
    for n in (2, 4, 8, 16, 32, 64):
        ids, stats = find_cliques(encode(gen_complete(n)))
        assert len(ids) == 1
        assert stats.recursive_calls == 1, n
        assert stats.merges == n - 1, n
        assert stats.pivot_splits == 0, n
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 4: PASS complete graphs collapse in one call ({elapsed:.3f}s)")


def test_criterion_5_moon_moser_counts():
    start = time.perf_counter()
    for k in (2, 3, 4, 5):
        g = gen_moon_moser(k)
        cliques, _ = solve_graph(g)
        assert len(cliques) == 3**k, k
        assert diff(cliques.values(), bron_kerbosch(g)).equal, k
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 5: PASS Moon-Moser counts 9/27/81/243 ({elapsed:.1f}s)")


def test_criterion_6_encoding_invariants():
    start = time.perf_counter()
    graphs_checked = 0
    for g in big_corpus():
        eg = encode(g)
        adj = g.adjacency()
        primes = eg.assignment.primes
        for u in g.vertices():
            value, weight = eg.tuples[u - 1]
            assert weight % value == 0  # closure
            members = decode_clique(weight, eg.assignment)  # squarefree over the primes
            assert math.prod(primes[w - 1] for w in members) == weight
            for v in range(u + 1, g.n + 1):
                assert has_edge(eg, u, v) == has_edge(eg, v, u)  # symmetry
                shared = math.gcd(weight, eg.tuples[v - 1].weight)
                decoded = decode_clique(shared, eg.assignment)
                assert decoded == (adj[u] | {u}) & (adj[v] | {v})
        assert decode_graph(eg) == g
        graphs_checked += 1
    elapsed = time.perf_counter() - start
    assert graphs_checked == 1000
    assert elapsed < 60.0
    print(f"ACCEPTANCE 6: PASS encoding invariants on 1000 graphs ({elapsed:.1f}s)")


def test_criterion_8_cli_golden_files(capsys):
    cases = [
        (["solve", "--input", str(FIXTURES / "p3.dimacs")], "1 2\n2 3\n"),
        (["solve", "--input", str(FIXTURES / "p3.dimacs"), "--ids"], "1 2\t6\n2 3\t15\n"),
        (["solve", "--input", str(FIXTURES / "k3.dimacs")], "1 2 3\n"),
        (["solve", "--input", str(FIXTURES / "k3.dimacs"), "--ids"], "1 2 3\t30\n"),
    ]
    for argv, expected in cases:
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
    assert main(["solve", "--input", str(FIXTURES / "bad.dimacs")]) == 2
    assert "line 2" in capsys.readouterr().err
    assert main(["verify", "--input", str(FIXTURES / "p3.dimacs")]) == 0
    assert capsys.readouterr().out == "matched=2 missing=0 extra=0\n"
    print("ACCEPTANCE 8: PASS CLI golden bytes and exit codes")


def test_criterion_9_performance_smoke(tmp_path):
    g = gen_gnp(100, 0.3, seed=42)
    start = time.perf_counter()
    cliques, stats = solve_graph(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert cliques

    spec = tmp_path / "spec.txt"
    spec.write_text("gnp n=100 p=0.3 seed=42\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert int(row["max_weight_bits"]) > 0
    assert int(row["clique_count"]) == len(cliques)
    print(
        f"ACCEPTANCE 9: PASS gnp(100, 0.3) solved in {elapsed:.2f}s, "
        f"{len(cliques)} cliques, max_weight_bits={row['max_weight_bits']} "
        f"(storage growth on record)"
    )

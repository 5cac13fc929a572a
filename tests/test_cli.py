import csv
import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES
import primeclique
from primeclique import encoding, solver
from primeclique.cli import main
from primeclique.encoding import Graph
from primeclique.graph_io import gen_gnp, gen_moon_moser, parse_dimacs, write_dimacs
from primeclique.oracle import bron_kerbosch
from test_solver import ASYMMETRIC, asymmetric_encoding, raw_extras_graph

P3 = str(FIXTURES / "p3.dimacs")
K3 = str(FIXTURES / "k3.dimacs")
BAD = str(FIXTURES / "bad.dimacs")


def test_gen_complete(tmp_path, capsys):
    out = tmp_path / "k3.dimacs"
    assert main(["gen", "--family", "complete", "--n", "3", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("p edge 3 3\n")
    assert parse_dimacs(text) == parse_dimacs((FIXTURES / "k3.dimacs").read_text())


def test_gen_gnp_edgeless(tmp_path):
    out = tmp_path / "g.dimacs"
    code = main(["gen", "--family", "gnp", "--n", "5", "--p", "0", "--out", str(out)])
    assert code == 0
    assert out.read_text() == "p edge 5 0\n"


def test_gen_cycle_too_small(tmp_path, capsys):
    code = main(["gen", "--family", "cycle", "--n", "2", "--out", str(tmp_path / "c")])
    assert code == 2
    assert "cycle requires n >= 3" in capsys.readouterr().err


def test_gen_gnp_requires_p(tmp_path, capsys):
    code = main(["gen", "--family", "gnp", "--n", "5", "--out", str(tmp_path / "g")])
    assert code == 2
    assert "--p" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, option", [("complete", ["--p", "0.3"]), ("path", ["--seed", "3"])]
)
def test_gen_rejects_an_option_the_family_ignores(tmp_path, capsys, family, option):
    out = tmp_path / "g.dimacs"
    code = main(["gen", "--family", family, "--n", "5", *option, "--out", str(out)])
    assert code == 2
    assert f"{family} takes no option {option[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_gen_gnp_seed_defaults_to_0(tmp_path):
    paths = [tmp_path / "default.dimacs", tmp_path / "zero.dimacs"]
    for path, seed in zip(paths, ([], ["--seed", "0"])):
        argv = ["gen", "--family", "gnp", "--n", "30", "--p", "0.4", *seed, "--out", str(path)]
        assert main(argv) == 0
    assert paths[0].read_text() == paths[1].read_text()


def test_solve_p3_golden(capsys):
    assert main(["solve", "--input", P3]) == 0
    assert capsys.readouterr().out == "1 2\n2 3\n"


def test_solve_p3_ids_golden(capsys):
    assert main(["solve", "--input", P3, "--ids"]) == 0
    assert capsys.readouterr().out == "1 2\t6\n2 3\t15\n"


def test_solve_k3_ids_golden(capsys):
    assert main(["solve", "--input", K3, "--ids"]) == 0
    assert capsys.readouterr().out == "1 2 3\t30\n"


def test_solve_repeat_runs_identical(capsys):
    main(["solve", "--input", K3, "--ids"])
    first = capsys.readouterr().out
    main(["solve", "--input", K3, "--ids"])
    assert capsys.readouterr().out == first


def test_solve_parse_error(capsys):
    assert main(["solve", "--input", BAD]) == 2
    err = capsys.readouterr().err
    assert "vertex out of range" in err and "line 2" in err


def test_solve_missing_file(tmp_path, capsys):
    assert main(["solve", "--input", str(tmp_path / "nope.dimacs")]) == 2


def test_solve_edgelist(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("1 2\n2 3\n")
    assert main(["solve", "--input", str(path), "--format", "edgelist"]) == 0
    assert capsys.readouterr().out == "1 2\n2 3\n"


def test_solve_stats_file(tmp_path, capsys):
    stats_path = tmp_path / "stats.txt"
    assert main(["solve", "--input", P3, "--stats", str(stats_path)]) == 0
    fields = dict(
        line.split("=", 1) for line in stats_path.read_text().splitlines()
    )
    assert float(fields.pop("wall_ms")) >= 0.0
    # every vertex of P3 has at most 2 neighbours, so the peel settles all
    # three and the step never splits
    assert list(fields.items()) == [
        ("family", "file"), ("n", "3"), ("p", ""), ("seed", ""),
        ("recursive_calls", "1"), ("merges", "0"), ("pivot_splits", "0"), ("gcd_calls", "0"),
        ("max_weight_bits", "5"), ("clique_count", "2"),
        ("case1_count", "0"), ("case2_count", "0"), ("pruned", "0"), ("peeled", "3"),
        ("folded", "0"),
    ]
    spec = tmp_path / "spec.txt"
    spec.write_text("gnp n=12 p=0.5 seed=3 verify=true\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    wall = header.split(",").index("wall_ms")
    row = row.split(",")
    assert float(row.pop(wall)) >= 0.0
    assert row == "gnp,12,0.5,3,39,5,19,25,31,13,true,11,25,1,0,0".split(",")


def test_solve_raw_keeps_nonmaximal(tmp_path, capsys):
    path = tmp_path / "extras.dimacs"
    path.write_text(write_dimacs(raw_extras_graph()))
    stats_path = tmp_path / "stats.txt"
    assert main(["solve", "--input", str(path), "--raw", "--stats", str(stats_path)]) == 0
    assert "2 3" in capsys.readouterr().out.splitlines()
    assert "pruned=0\npeeled=0\n" in stats_path.read_text()
    # sanitized, the peel settles all 7 vertices and never emits {2, 3},
    # which vertex 1 extends
    assert main(["solve", "--input", str(path), "--stats", str(stats_path)]) == 0
    assert "2 3" not in capsys.readouterr().out.splitlines()
    assert "pruned=0\npeeled=7\n" in stats_path.read_text()
    # no vertex here has fewer than 3 neighbours, so the step runs, and the
    # guard drops entries that only the raw output keeps
    path.write_text(write_dimacs(gen_gnp(40, 0.6, seed=1040)))
    assert main(["solve", "--input", str(path), "--stats", str(stats_path)]) == 0
    sanitized = capsys.readouterr().out.splitlines()
    assert "pruned=102\npeeled=0\n" in stats_path.read_text()
    assert main(["solve", "--input", str(path), "--raw", "--stats", str(stats_path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) > len(sanitized)
    assert "pruned=0\npeeled=0\n" in stats_path.read_text()


def test_verify_p3(capsys):
    assert main(["verify", "--input", P3]) == 0
    assert capsys.readouterr().out == "matched=2 missing=0 extra=0\n"


def test_verify_raw_reports_the_extra_clique(tmp_path, capsys):
    path = tmp_path / "extras.dimacs"
    path.write_text(write_dimacs(raw_extras_graph()))
    # raw output keeps {2, 3}, inside the maximal clique {1, 2, 3}
    assert main(["verify", "--input", str(path), "--raw"]) == 1
    assert capsys.readouterr().out == "matched=5 missing=0 extra=1\nextra: 2 3\n"
    assert main(["verify", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "matched=5 missing=0 extra=0\n"


def test_verify_moon_moser(tmp_path, capsys):
    path = tmp_path / "mm.dimacs"
    main(["gen", "--family", "moon-moser", "--n", "3", "--out", str(path)])
    capsys.readouterr()
    assert main(["verify", "--input", str(path)]) == 0
    assert capsys.readouterr().out.startswith("matched=27 ")


def test_verify_detects_injected_fault(monkeypatch, capsys):
    real = solver.find_cliques

    def lossy(q, *, sanitize=True):
        out, stats = real(q, sanitize=sanitize)
        return dict(sorted(out.items())[:-1]), stats

    monkeypatch.setattr(solver, "find_cliques", lossy)
    assert main(["verify", "--input", P3]) == 1
    out = capsys.readouterr().out
    assert "missing=1" in out
    assert "missing:" in out


def test_solve_integrity_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a fault in the encoding reaches the raw emission test
    path = tmp_path / "asym.dimacs"
    path.write_text(write_dimacs(ASYMMETRIC))
    monkeypatch.setattr(encoding, "encode", asymmetric_encoding)
    assert main(["solve", "--input", str(path), "--raw"]) == 3
    assert capsys.readouterr().err == (
        "integrity error: id 6 decodes to a non-clique: vertices 1 and 2 are not adjacent\n"
    )


def test_bench_complete_matrix(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(
        "# merge-collapse sizes\n"
        "complete n=4\n"
        "complete n=8\n"
        "complete n=16\n"
        "gnp n=10 p=0.5 seed=7 verify=true\n"
        "moon-moser k=2 verify=true\n"
    )
    out = tmp_path / "bench.csv"
    assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for row, n in zip(rows[:3], (4, 8, 16)):
        assert row["family"] == "complete"
        assert row["recursive_calls"] == "1"
        assert row["merges"] == str(n - 1)
        assert row["pivot_splits"] == "0"
        assert row["clique_count"] == "1"
        assert row["verified"] == ""
    gnp_row = rows[3]
    assert gnp_row["p"] == "0.5" and gnp_row["seed"] == "7"
    assert gnp_row["verified"] == "true"
    mm_row = rows[4]
    assert mm_row["n"] == "6" and mm_row["clique_count"] == "9"
    assert mm_row["verified"] == "true"


def test_bench_reps(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("complete n=4\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", "--spec", str(spec), "--out", str(out), "--reps", "3"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert {row["merges"] for row in rows} == {"3"}


def test_bench_empty_matrix(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("# nothing\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
    assert out.read_text() == (
        "family,n,p,seed,wall_ms,recursive_calls,merges,pivot_splits,"
        "gcd_calls,max_weight_bits,clique_count,verified,case1_count,case2_count,pruned,peeled,folded\n"
    )


@pytest.mark.parametrize(
    "line, message",
    [
        ("complete bogus", "key=value"),
        ("gnp n=10", "missing option 'p'"),
        ("path n=0", "path requires n >= 1"),
        ("gnp n=5 p=2", "edge probability must be in [0, 1]"),
        ("complete n=3 p=0.5 seed=4", "complete takes no option 'p'"),
        ("complete n=3 k=5", "complete takes no option 'k'"),
        ("moon-moser n=2 k=3", "give n or k, not both"),
        ("path n=4 verify=yes", "verify must be true or false"),
        ("complete n=3 n=5", "duplicate option 'n'"),
    ],
)
def test_bench_malformed_spec(tmp_path, capsys, line, message):
    spec = tmp_path / "spec.txt"
    spec.write_text(line + "\n")
    code = main(["bench", "--spec", str(spec), "--out", str(tmp_path / "b.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "line 1" in err


def test_bench_checks_the_whole_spec_before_running(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("complete n=4\ncomplete n=3 bogus=1\n")
    out = tmp_path / "b.csv"
    assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not out.exists()


def test_bench_unwritable_out(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("complete n=4\n")
    code = main(["bench", "--spec", str(spec), "--out", str(tmp_path / "no" / "b.csv")])
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "primeclique", "solve", "--input", P3],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 2\n2 3\n"


VERIFY_RECURSION_LIMIT_SCRIPT = """
import sys
from primeclique.cli import main
from primeclique.encoding import Graph
from primeclique.graph_io import write_dimacs
from primeclique.oracle import bron_kerbosch

sys.setrecursionlimit(150)
k = 200
clique = [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)]
g = Graph.from_edges(2 * k, clique + [(u, u + k) for u in range(1, k + 1)])
assert len(bron_kerbosch(g)) == k + 1
with open(sys.argv[1], "w") as fh:
    fh.write(write_dimacs(g))
sys.exit(main(["verify", "--input", sys.argv[1]]))
"""


def test_verify_runs_under_a_small_recursion_limit(tmp_path):
    # K_200 with a pendant on each vertex: Bron-Kerbosch nests 200 deep, so
    # the oracle must not need a frame per clique member
    src = str(Path(primeclique.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", VERIFY_RECURSION_LIMIT_SCRIPT, str(tmp_path / "g.dimacs")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "matched=201 missing=0 extra=0\n"


def kth_primes(n: int) -> list[int]:
    """The first n primes by trial division, apart from the program's sieve."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def expected_solve_output(g: Graph, with_ids: bool) -> str:
    """``solve``'s text formatted from Bron-Kerbosch: members ascending, the
    id the product of the members' primes, lines sorted as strings."""
    primes = kth_primes(g.n)
    lines = []
    for c in bron_kerbosch(g):
        line = " ".join(map(str, sorted(c)))
        if with_ids:
            line += f"\t{math.prod(primes[v - 1] for v in c)}"
        lines.append(line + "\n")
    return "".join(sorted(lines))


def moon_moser_4_less_one_relabelled(seed: int) -> Graph:
    g = gen_moon_moser(4)
    n = g.n - 1
    label = list(range(1, n + 1))
    random.Random(seed).shuffle(label)
    return Graph.from_edges(n, ((label[u - 1], label[v - 1]) for u, v in g.edges if v <= n))


BYTE_EXACT_GRAPHS = {
    **{
        f"gnp-{n}-{p}": (lambda n=n, p=p, i=i: gen_gnp(n, p, 3000 + i))
        for i, (n, p) in enumerate(
            (n, p) for n in (1, 2, 4, 7, 10, 13, 16, 19, 22, 25) for p in (0.15, 0.4, 0.65, 0.9)
        )
    },
    **{f"moon-moser-4-less-one-{s}": (lambda s=s: moon_moser_4_less_one_relabelled(s)) for s in range(4)},
}


@pytest.mark.parametrize("name", BYTE_EXACT_GRAPHS)
def test_solve_prints_bron_kerbosch_byte_for_byte(tmp_path, capsys, name):
    g = BYTE_EXACT_GRAPHS[name]()
    path = tmp_path / "g.dimacs"
    path.write_text(write_dimacs(g))
    for extra in ([], ["--ids"]):
        assert main(["solve", "--input", str(path), *extra]) == 0
        assert capsys.readouterr().out == expected_solve_output(g, with_ids=bool(extra))


@pytest.mark.parametrize(
    "make, lines, digest",
    [
        pytest.param(
            raw_extras_graph, 6, "cdd90f6898f6dcf4015166b53d6ebf9c87282d0480138af1b455fa7ffbb33bc8",
            id="raw_extras",
        ),
        pytest.param(
            lambda: gen_gnp(30, 0.5, 2), 523, "83cfe7a3d1f04493034cb66448c219d23d6aa11845ccf6b6448e6ef25d727e35",
            id="gnp-30-0.5-2",
        ),
    ],
)
def test_solve_raw_ids_bytes_are_pinned(tmp_path, capsys, make, lines, digest):
    # the literal ids, non-maximal ones included, as solve --raw --ids printed
    # them when solve_graph still returned vertex sets in id order
    path = tmp_path / "g.dimacs"
    path.write_text(write_dimacs(make()))
    assert main(["solve", "--input", str(path), "--raw", "--ids"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest

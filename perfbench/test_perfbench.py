"""Tests of the benchmark itself, on tiny graphs.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _smoke_cases(workload, tmp_path, seed=3):
    size = run.SIZES[workload]["smoke"]
    _elapsed, pc, graphs, paths = run.setup(workload, seed, size, tmp_path)
    return pc, run.make_cases(pc, workload, graphs, paths)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.3", "--trace", trace, "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    declared = _declared("per_layer" if trace == "1" else "end_to_end")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_frac 0.0 ratio" in lines
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
    for name, unit in declared.items():
        assert printed.get(name) == unit, name
    assert not any(line.startswith("absent layers") for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_has_a_span_for_every_wrapped_function(workload, tmp_path):
    pc, cases = _smoke_cases(workload, tmp_path)
    tracer = run.tracing.Tracer()
    plain, traced = run.run_traced(pc, cases, 0.0, tracer)
    calls, _inclusive, _own = tracer.totals()
    assert tracer.absent == []
    assert {layer for layer, n in calls.items() if n == 0} == set()
    assert traced.failed == plain.failed == 0
    # The wrappers are gone again once the traced solve is over.
    assert not hasattr(pc.solver.drop_contained_ids, "__wrapped__")


def test_missing_function_is_reported_absent(tmp_path):
    pc, _cases = _smoke_cases("dense", tmp_path)
    original = pc.solver.drop_contained_ids
    del pc.solver.drop_contained_ids
    try:
        tracer = run.tracing.Tracer()
    finally:
        pc.solver.drop_contained_ids = original
    assert tracer.absent == ["prune"]


def test_corrupted_reference_line_counts_as_failed_solve(tmp_path, capsys):
    pc, cases = _smoke_cases("multipartite", tmp_path)
    case = cases[0]
    first, rest = case.expected.split("\n", 1)
    case.expected = first + "0\n" + rest
    tally = run.run_untraced(pc, [case], 0.0)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "line 1: got" in capsys.readouterr().out


def test_reference_formats_ids_as_products_of_kth_primes():
    expected = run.reference_output([frozenset({3, 1}), frozenset({2})], 3, with_ids=True)
    assert expected == "1 3\t10\n2\t3\n"


def test_inputs_are_a_function_of_the_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _pc, first = _smoke_cases("sparse", tmp_path / "a", seed=9)
    _pc, second = _smoke_cases("sparse", tmp_path / "b", seed=9)

    def shape(cases):
        return [(c.graph.n, c.graph.edges) for c in cases]

    assert shape(first) == shape(second)
    _pc, other = _smoke_cases("sparse", tmp_path / "a", seed=10)
    assert shape(first) != shape(other)


def test_solve_times_are_divided_by_the_calibration_before_them():
    tally = run.Tally()
    case = run.Case(graph=None, argv=[], expected="", cliques=10)
    for elapsed, cal in ((0.2, 0.01), (0.4, 0.02), (0.9, 0.03)):
        tally.add(case, elapsed, None, cal=cal)
    metrics, wall = run.end_to_end_metrics(tally, [1.0, 3.0, 2.0])
    assert metrics["solve_cal_p50"] == pytest.approx(20.0)
    assert metrics["cliques_per_cal"] == pytest.approx(30 / 70)
    assert metrics["setup_s"] == 2.0
    assert wall["solve_ms_p50"] == pytest.approx(400.0)
    assert wall["cal_ms"] == pytest.approx(20.0)

#!/usr/bin/env python3
"""Benchmark of `primeclique solve` on seeded graph workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 35 --trace 0

The workload's graphs are generated from the seed and written as DIMACS
files. Then `primeclique.cli.main(["solve", ...])` runs in-process with its
stdout captured, in a closed loop (one client, one solve at a time) for
`--seconds`. Every output is compared byte for byte against a reference
formatted here from `oracle.bron_kerbosch`.

Right before each timed solve, a fixed kernel of the benchmark's own (big-int
divisibility, gcd, sorting; it calls nothing of the program) is timed as
well. The bounded solve metrics are solve time divided by that kernel time,
in "cal" units: a shared host's speed can swing about 2x within minutes,
and both sides of the ratio swing together. Wall-clock figures are printed
too.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced solves and reports per-layer metrics from spans recorded around
the program's public functions (see tracer.py). The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402

WORKLOADS = ("dense", "sparse", "multipartite")

# Sizes are fixed: changing them changes what every recorded number means,
# so resizing is a change to the benchmark, never part of a performance
# change. "smoke" is the tiny variant the benchmark's own test runs.
SIZES = {
    "dense": {"full": {"n": 70, "p": 0.33, "graphs": 300}, "smoke": {"n": 12, "p": 0.4, "graphs": 3}},
    "sparse": {"full": {"n": 600, "copies": 4}, "smoke": {"n": 15, "copies": 1}},
    "multipartite": {"full": {"k": 7, "copies": 64}, "smoke": {"k": 3, "copies": 2}},
}

# Set-up is repeated, at least SETUP_REPS times and for SETUP_MIN_SECONDS,
# and its median reported, so one slow import or file write does not decide
# the figure (multipartite's set-up takes only about 40 ms).
SETUP_REPS = 5
SETUP_MIN_SECONDS = 1.5

# (name, unit) in report order. A "cal" is the time of one calibration
# kernel run (see calibrate) measured right before the solve.
END_TO_END = (
    ("solve_cal_p50", "cal"),
    ("solve_cal_p90", "cal"),
    ("cliques_per_cal", "1/cal"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Wall-clock figures of the same run, printed but not bounded: on a shared
# host they follow the neighbours' load as much as the program.
WALL_CLOCK = (
    ("solve_ms_p50", "ms"),
    ("solve_ms_p90", "ms"),
    ("cliques_per_s", "1/s"),
    ("cal_ms", "ms"),
)
PER_LAYER = (
    ("parse.ms", "ms"),
    ("assign.ms", "ms"),
    ("encode.ms", "ms"),
    ("encode.max_weight_bits", "bits"),
    ("enumerate.ms", "ms"),
    ("enumerate.self.ms", "ms"),
    ("enumerate.raw_ids", "count"),
    ("enumerate.recursive_calls", "count"),
    ("enumerate.merges", "count"),
    ("enumerate.pivot_splits", "count"),
    ("enumerate.case1", "count"),
    ("enumerate.case2", "count"),
    ("enumerate.gcd_calls", "count"),
    ("sort.ms", "ms"),
    ("sort.tuples", "count"),
    ("merge.ms", "ms"),
    ("merge.tuples", "count"),
    ("partition.ms", "ms"),
    ("partition.tuples", "count"),
    ("eliminate.ms", "ms"),
    ("eliminate.tuples", "count"),
    ("check.ms", "ms"),
    ("prune.ms", "ms"),
    ("prune.in", "count"),
    ("prune.out", "count"),
    ("prune.keep_ratio", "ratio"),
    ("decode.ms", "ms"),
    ("decode.calls", "count"),
    ("format.ms", "ms"),
    ("solver.self.ms", "ms"),
    ("cli.self.ms", "ms"),
    ("oracle.ms", "ms"),
    ("oracle_gap", "ratio"),
    ("trace.attributed", "ratio"),
    ("trace.overhead", "ratio"),
    ("solve.ms", "ms"),
)


@dataclass
class Case:
    """One generated input: the graph, the solve arguments naming its file,
    and the expected output with its clique count."""

    graph: object
    argv: list
    expected: str
    cliques: int


def import_program():
    """Import `primeclique` afresh from the checkout's `src/`."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "primeclique" or m.startswith("primeclique.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pc = SimpleNamespace(
        **{m: importlib.import_module(f"primeclique.{m}") for m in ("cli", "encoding", "graph_io", "oracle", "solver")}
    )
    if not Path(pc.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: primeclique imported from {pc.cli.__file__}, not {src}")
    return pc


def relabel(pc, g, rng):
    """The graph under a uniform vertex permutation drawn from rng."""
    perm = list(range(g.n + 1))
    for i in range(g.n, 1, -1):
        j = 1 + rng.next_u64() % i
        perm[i], perm[j] = perm[j], perm[i]
    return pc.encoding.Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def build_graphs(pc, workload, seed, size):
    """The workload's graphs; every random choice comes from SplitMix64(seed)."""
    gio = pc.graph_io
    rng = gio.SplitMix64(seed)
    if workload == "dense":
        return [gio.gen_gnp(size["n"], size["p"], rng.next_u64()) for _ in range(size["graphs"])]
    if workload == "sparse":
        n = size["n"]
        graphs = []
        for _ in range(size["copies"]):
            for g in (gio.gen_path(n), gio.gen_cycle(n), gio.gen_gnp(n, 2.5 / n, rng.next_u64())):
                graphs.append(relabel(pc, g, rng))
        return graphs
    # Moon-Moser k minus its last vertex: complete k-partite with one part
    # of two, 2 * 3**(k-1) maximal cliques.
    g = gio.gen_moon_moser(size["k"])
    g = pc.encoding.Graph.from_edges(g.n - 1, ((u, v) for u, v in g.edges if v != g.n))
    return [relabel(pc, g, rng) for _ in range(size["copies"])]


def setup(workload, seed, size, inputs):
    """Import the program, generate the graphs and write them; timed as one."""
    start = time.perf_counter()
    pc = import_program()
    graphs = build_graphs(pc, workload, seed, size)
    paths = []
    for i, g in enumerate(graphs):
        path = inputs / f"g{i:03d}.dimacs"
        path.write_text(pc.graph_io.write_dimacs(g))
        paths.append(path)
    return time.perf_counter() - start, pc, graphs, paths


def first_primes(n):
    primes = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


# Calibration kernel input, fixed for every seed and commit: weights that
# are products of 8 to 24 of the first 64 primes, like the solver's clique ids.
_CAL_PRIMES = first_primes(64)
_cal_rng = random.Random(20060117)
_CAL_WEIGHTS = [math.prod(_cal_rng.sample(_CAL_PRIMES, _cal_rng.randint(8, 24))) for _ in range(600)]
CAL_REPS = 3


def _cal_kernel():
    ordered = sorted(_CAL_WEIGHTS, reverse=True)
    acc = 0
    for a, b in zip(ordered, ordered[1:]):
        acc += (a // math.gcd(a, b)) % 1009
    for w in ordered:
        acc += sum(1 for p in _CAL_PRIMES if w % p == 0)
    return acc


def calibrate():
    """Seconds of the calibration kernel: the fastest of CAL_REPS runs, so a
    single interruption does not decide it."""
    best = math.inf
    for _ in range(CAL_REPS):
        start = time.perf_counter()
        _cal_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def reference_output(cliques, n, with_ids):
    """Expected `solve` stdout: members ascending, lines sorted as strings,
    and with ids the product of the members' primes (vertex k -> k-th prime)."""
    primes = first_primes(n) if with_ids else None
    rows = []
    for clique in cliques:
        members = sorted(clique)
        key = " ".join(str(v) for v in members)
        line = f"{key}\t{math.prod(primes[v - 1] for v in members)}" if with_ids else key
        rows.append((key, line))
    rows.sort()
    return "".join(line + "\n" for _, line in rows)


def make_cases(pc, workload, graphs, paths):
    with_ids = workload == "multipartite"
    cases = []
    for g, path in zip(graphs, paths):
        cliques = pc.oracle.bron_kerbosch(g)
        argv = ["solve", "--input", str(path)] + (["--ids"] if with_ids else [])
        cases.append(Case(g, argv, reference_output(cliques, g.n, with_ids), len(cliques)))
    return cases


def first_mismatch(got, expected):
    got_lines, want_lines = got.splitlines(), expected.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return f"line {i + 1}: got {a!r}, expected {b!r}"
    return f"{len(got_lines)} lines, expected {len(want_lines)}"


def solve_once(pc, case):
    """Run one solve; return (seconds, None) or (seconds, failure reason)."""
    out = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = pc.cli.main(case.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a solve that raises is a failed solve, not a failed benchmark
        return time.perf_counter() - start, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"exit code {code}"
    got = out.getvalue()
    if got != case.expected:
        return elapsed, first_mismatch(got, case.expected)
    return elapsed, None


class Tally:
    """Solve times and failures of one kind of solve; with calibration, the
    kernel time measured before each solve too."""

    def __init__(self):
        self.seconds = []
        self.cal_seconds = []
        self.cliques = 0
        self.attempted = 0
        self.failed = 0

    def add(self, case, elapsed, error, cal=None):
        self.attempted += 1
        if error is None:
            self.seconds.append(elapsed)
            if cal is not None:
                self.cal_seconds.append(cal)
            self.cliques += case.cliques
            return
        self.failed += 1
        if self.failed <= 3:
            print(f"FAILED solve of {case.argv[2]}: {error}", flush=True)


def run_untraced(pc, cases, seconds):
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        case = cases[i % len(cases)]
        gc.collect()
        cal = calibrate()
        tally.add(case, *solve_once(pc, case), cal=cal)
        i += 1
    return tally


def run_traced(pc, cases, seconds, tracer):
    """Per visit of a graph: one untraced and one traced solve, in alternating
    order, then one traced Bron-Kerbosch call on the same graph."""
    plain, traced = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        case = cases[i % len(cases)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.active():
                    traced.add(case, *solve_once(pc, case))
            else:
                plain.add(case, *solve_once(pc, case))
        gc.collect()
        with tracer.active():
            pc.oracle.bron_kerbosch(case.graph)
        i += 1
    return plain, traced


def quantile(values, q):
    """The q-th of 100 quantiles (inclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(tally, setup_seconds):
    """End-to-end metrics, and the wall-clock figures printed beside them."""
    ms = [s * 1000.0 for s in tally.seconds]
    cal = [s / c for s, c in zip(tally.seconds, tally.cal_seconds)]
    total, total_cal = sum(tally.seconds), sum(cal)
    metrics = {
        "solve_cal_p50": statistics.median(cal) if cal else 0.0,
        "solve_cal_p90": quantile(cal, 90),
        "cliques_per_cal": tally.cliques / total_cal if total_cal else 0.0,
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {
        "solve_ms_p50": statistics.median(ms) if ms else 0.0,
        "solve_ms_p90": quantile(ms, 90),
        "cliques_per_s": tally.cliques / total if total else 0.0,
        "cal_ms": statistics.median(tally.cal_seconds) * 1000.0 if tally.cal_seconds else 0.0,
    }
    return metrics, wall


def per_layer_metrics(tracer, plain, traced):
    calls, inclusive, own = tracer.totals()
    solves = max(traced.attempted, 1)

    def ms(ns, per=solves):
        return ns / per / 1e6

    def count(layer, key):
        return tracer.counts.get((layer, key), 0) / solves

    metrics = {f"{layer}.ms": ms(own[layer]) for layer in tracing.LAYER_NAMES if layer not in ("cli", "solver", "oracle")}
    metrics["enumerate.ms"] = ms(inclusive["enumerate"])
    metrics["enumerate.self.ms"] = ms(own["enumerate"])
    metrics["solver.self.ms"] = ms(own["solver"])
    metrics["cli.self.ms"] = ms(own["cli"])
    metrics["oracle.ms"] = ms(inclusive["oracle"], max(calls["oracle"], 1))
    metrics["decode.calls"] = calls["decode"] / solves
    metrics["enumerate.raw_ids"] = count("enumerate", "raw_ids")
    for _attr, key in tracing.STATS_FIELDS:
        name = "encode.max_weight_bits" if key == "max_weight_bits" else f"enumerate.{key}"
        metrics[name] = count("solver", key)
    for layer in ("sort", "merge", "partition", "eliminate"):
        metrics[f"{layer}.tuples"] = count(layer, "tuples")
    metrics["prune.in"] = count("prune", "in")
    metrics["prune.out"] = count("prune", "out")
    pruned_in = tracer.counts.get(("prune", "in"), 0)
    metrics["prune.keep_ratio"] = tracer.counts.get(("prune", "out"), 0) / pruned_in if pruned_in else 0.0
    plain_total = sum(plain.seconds)
    oracle_total = inclusive["oracle"] / 1e9
    metrics["oracle_gap"] = plain_total / oracle_total if oracle_total else 0.0
    named = sum(own[layer] for layer in tracing.LAYER_NAMES if layer not in ("cli", "oracle"))
    metrics["trace.attributed"] = named / inclusive["cli"] if inclusive["cli"] else 0.0
    plain_p50 = statistics.median(plain.seconds) if plain.seconds else 0.0
    traced_p50 = statistics.median(traced.seconds) if traced.seconds else 0.0
    metrics["trace.overhead"] = traced_p50 / plain_p50 if plain_p50 else 0.0
    metrics["solve.ms"] = plain_p50 * 1000.0
    absent = sorted(set(tracer.absent) | {layer for layer in tracing.LAYER_NAMES if calls[layer] == 0})
    return metrics, absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny graphs, for the benchmark's own test")
    args = parser.parse_args(argv)
    size = SIZES[args.workload]["smoke" if args.smoke else "full"]
    if not (ROOT / "src" / "primeclique" / "__init__.py").is_file():
        print(f"error: no primeclique package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    inputs = WORK / f"{args.workload}-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        setup_seconds = []
        while len(setup_seconds) < SETUP_REPS or sum(setup_seconds) < SETUP_MIN_SECONDS:
            shutil.rmtree(inputs)
            inputs.mkdir()
            gc.collect()
            elapsed, pc, graphs, paths = setup(args.workload, args.seed, size, inputs)
            setup_seconds.append(elapsed)
        cases = make_cases(pc, args.workload, graphs, paths)
        # The benchmark's own graphs and references stay alive all run; move
        # them out of the collector's view so they do not tax the solves.
        gc.collect()
        gc.freeze()
        print(f"workload={args.workload} seed={args.seed} sizes={json.dumps(size)} graphs={len(cases)} trace={args.trace}")
        wall = {}
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = run_traced(pc, cases, args.seconds, tracer)
            metrics, absent = per_layer_metrics(tracer, plain, traced)
            units = dict(PER_LAYER)
            attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
            tracer.write(WORK / f"{args.workload}.spans.tsv")
            if absent:
                print("absent layers (reported as 0): " + " ".join(absent))
        else:
            tally = run_untraced(pc, cases, args.seconds)
            metrics, wall = end_to_end_metrics(tally, setup_seconds)
            units = dict(END_TO_END)
            attempted, failed = tally.attempted, tally.failed
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    print(f"solves {attempted} count")
    print(f"failed_frac {failed / attempted} ratio")
    if not args.trace and attempted - failed < 100:
        print("warning: fewer than 100 solves, so fewer than 10 lie beyond solve_cal_p90")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for name, unit in WALL_CLOCK:
        if name in wall:
            print(f"{name} {wall[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

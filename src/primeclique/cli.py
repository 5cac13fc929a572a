"""Command-line interface: generate, solve, verify, bench.

Exit codes are a stable contract: 0 success (and oracle agreement for
``verify``), 1 verification divergence, 2 input or usage error, 3 internal
integrity failure.
"""

import argparse
import csv
import sys
import time

from . import graph_io, oracle, solver
from .encoding import Graph, PrimeAssignment
from .errors import IntegrityError, ParseError

FAMILIES = ("complete", "path", "cycle", "gnp", "moon-moser")

# SolverStats fields reported by ``solve --stats`` and the bench CSV, in order.
STATS_COLUMNS = ("recursive_calls", "merges", "pivot_splits", "gcd_calls", "max_weight_bits")
CSV_FIELDS = ["family", "n", "p", "seed", "wall_ms", *STATS_COLUMNS, "clique_count", "verified"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primeclique",
        description="Maximal clique enumeration over a prime-number graph encoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph and write it as DIMACS")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", required=True, type=int, help="vertex count (parts for moon-moser)")
    gen.add_argument("--p", type=float, help="edge probability (gnp only)")
    gen.add_argument("--seed", type=int, default=0, help="PRNG seed (gnp only)")
    gen.add_argument("--out", required=True, help="output path")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="enumerate maximal cliques of a graph file")
    solve.add_argument("--input", required=True)
    solve.add_argument("--format", choices=("dimacs", "edgelist"), default="dimacs")
    solve.add_argument("--raw", action="store_true", help="skip sanitizing (literal recursion output)")
    solve.add_argument("--ids", action="store_true", help="append the clique id to each line")
    solve.add_argument("--stats", help="write solver stats to this path")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="diff the solver against Bron-Kerbosch")
    verify.add_argument("--input", required=True)
    verify.add_argument("--format", choices=("dimacs", "edgelist"), default="dimacs")
    verify.add_argument("--raw", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="run a benchmark matrix, write CSV")
    bench.add_argument("--spec", required=True, help="matrix file: one run per line")
    bench.add_argument("--out", required=True, help="CSV output path")
    bench.add_argument("--reps", type=int, default=1, help="repetitions per row")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


def _generate(family: str, n: int, p: float | None, seed: int) -> Graph:
    if family == "complete":
        return graph_io.gen_complete(n)
    if family == "path":
        return graph_io.gen_path(n)
    if family == "cycle":
        return graph_io.gen_cycle(n)
    if family == "moon-moser":
        return graph_io.gen_moon_moser(n)
    if family == "gnp":
        if p is None:
            raise ValueError("gnp requires --p")
        return graph_io.gen_gnp(n, p, seed)
    raise ValueError(f"unknown family {family!r}")


def _cmd_gen(args) -> int:
    g = _generate(args.family, args.n, args.p, args.seed)
    with open(args.out, "w") as fh:
        fh.write(graph_io.write_dimacs(g))
    return 0


def _read_graph(path: str, fmt: str) -> Graph:
    with open(path) as fh:
        text = fh.read()
    if fmt == "dimacs":
        return graph_io.parse_dimacs(text)
    return graph_io.parse_edge_list(text)


def _run(g: Graph, raw: bool, assignment: PrimeAssignment | None = None):
    """Solve a graph, returning (clique vertex sets, stats, wall-clock ms)."""
    config = solver.SolverConfig(sanitize=not raw)
    start = time.perf_counter()
    cliques, stats = solver.solve_graph(g, config, assignment)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return set(cliques), stats, wall_ms


def _record(
    stats: solver.SolverStats,
    wall_ms: float,
    clique_count: int,
    family: str,
    n: int,
    p: str = "",
    seed: str = "",
    verified: str = "",
) -> dict[str, str]:
    labels = (family, str(n), p, seed, f"{wall_ms:.3f}")
    counters = (str(getattr(stats, name)) for name in STATS_COLUMNS)
    return dict(zip(CSV_FIELDS, (*labels, *counters, str(clique_count), verified), strict=True))


def _cmd_solve(args) -> int:
    g = _read_graph(args.input, args.format)
    # Built only for --ids, and then shared with the encoder.
    assignment = PrimeAssignment.default(g.n) if args.ids else None
    cliques, stats, wall_ms = _run(g, args.raw, assignment)
    sys.stdout.write(graph_io.write_cliques(cliques, with_ids=args.ids, assignment=assignment))
    if args.stats:
        record = _record(stats, wall_ms, len(cliques), family="file", n=g.n)
        del record["verified"]  # present only when verification ran
        with open(args.stats, "w") as fh:
            fh.writelines(f"{k}={v}\n" for k, v in record.items())
    return 0


def _cmd_verify(args) -> int:
    g = _read_graph(args.input, args.format)
    cliques, _stats, _wall = _run(g, args.raw)
    expected = oracle.bron_kerbosch(g)
    report = oracle.diff(cliques, expected)
    print(f"matched={report.matched} missing={len(report.missing)} extra={len(report.extra)}")
    if report.equal:
        return 0
    for c in sorted(report.missing, key=sorted):
        print("missing:", " ".join(str(v) for v in sorted(c)))
    for c in sorted(report.extra, key=sorted):
        print("extra:", " ".join(str(v) for v in sorted(c)))
    return 1


def _parse_bench_spec(text: str):
    """Matrix lines: ``<family> key=value ...`` with keys n (or k), p, seed,
    verify; ``#`` comments. Returns runs in file order."""
    runs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        family = fields[0]
        if family not in FAMILIES:
            raise ParseError(f"unknown family {family!r}", lineno)
        opts = {}
        for item in fields[1:]:
            if "=" not in item:
                raise ParseError(f"expected key=value, got {item!r}", lineno)
            key, value = item.split("=", 1)
            opts[key] = value
        runs.append((family, opts, lineno))
    return runs


def _bench_row(family: str, opts: dict[str, str], lineno: int) -> dict[str, str]:
    known = {"n", "k", "p", "seed", "verify"}
    for key in opts:
        if key not in known:
            raise ParseError(f"unknown option {key!r}", lineno)
    verify = opts.get("verify", "false") == "true"
    try:
        n = int(opts["k" if family == "moon-moser" and "k" in opts else "n"])
        p = float(opts["p"]) if "p" in opts or family == "gnp" else None
        seed = int(opts.get("seed", "0"))
        # The generators' range errors name the spec line too.
        g = _generate(family, n, p, seed)
    except KeyError as exc:
        raise ParseError(f"missing option {exc.args[0]!r}", lineno)
    except ValueError as exc:
        raise ParseError(str(exc), lineno)
    cliques, stats, wall_ms = _run(g, raw=False)
    verified = ""
    if verify:
        verified = "true" if oracle.diff(cliques, oracle.bron_kerbosch(g)).equal else "false"
    return _record(
        stats,
        wall_ms,
        len(cliques),
        family=family,
        n=g.n,
        p="" if p is None else repr(p),
        seed=str(seed) if family == "gnp" else "",
        verified=verified,
    )


def _cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError("--reps must be >= 1")
    with open(args.spec) as fh:
        runs = _parse_bench_spec(fh.read())
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for family, opts, lineno in runs:
            for _ in range(args.reps):
                writer.writerow(_bench_row(family, opts, lineno))
    return 0

"""Command-line interface: generate, solve, verify, bench.

Exit codes are a stable contract: 0 success (and oracle agreement for
``verify``), 1 verification divergence, 2 input or usage error, 3 internal
integrity failure.
"""

import argparse
import csv
import functools
import sys
import time

from . import graph_io, oracle, solver
from .encoding import Graph
from .errors import IntegrityError, ParseError

# Family -> (generator, bench options besides n and verify); k stands in for n.
FAMILIES = {
    "complete": (graph_io.gen_complete, ()),
    "path": (graph_io.gen_path, ()),
    "cycle": (graph_io.gen_cycle, ()),
    "gnp": (graph_io.gen_gnp, ("p", "seed")),
    "moon-moser": (graph_io.gen_moon_moser, ("k",)),
}

# The bench CSV's columns, in order; ``solve --stats`` writes all of them but
# ``verified``. The case split and the pruned, peeled and folded counts
# follow every older column.
COLUMNS = (
    "family", "n", "p", "seed", "wall_ms",
    "recursive_calls", "merges", "pivot_splits", "gcd_calls", "max_weight_bits",
    "clique_count", "verified", "case1_count", "case2_count", "pruned", "peeled", "folded",
)


@functools.cache
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
    gen.add_argument("--seed", type=int, help="PRNG seed (gnp only, default 0)")
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
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


def _generate(family: str, n: int, p: float | None, seed: int | None) -> Graph:
    generator, options = FAMILIES[family]
    for name, value in (("p", p), ("seed", seed)):
        if value is not None and name not in options:
            raise ValueError(f"{family} takes no option --{name}")
    if "p" not in options:
        return generator(n)
    if p is None:
        raise ValueError("gnp requires --p")
    return generator(n, p, 0 if seed is None else seed)


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


def _run(g: Graph, raw: bool):
    """Solve a graph, returning (dict clique id -> its vertex ids, in
    emission order, stats, wall-clock ms)."""
    start = time.perf_counter()
    cliques, stats = solver.solve_graph(g, sanitize=not raw)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return cliques, stats, wall_ms


def _record(labels, stats: solver.SolverStats, wall_ms: float, clique_count: int) -> dict[str, str]:
    """A ``solve --stats`` record as text; labels are family, n, p, seed.
    The other columns but ``verified`` are ``SolverStats`` fields."""
    known = dict(zip(COLUMNS, labels), wall_ms=f"{wall_ms:.3f}", clique_count=clique_count)
    record = {}
    for name in COLUMNS:
        if name != "verified":
            value = known[name] if name in known else getattr(stats, name)
            record[name] = "" if value is None else str(value)
    return record


def _cmd_solve(args) -> int:
    g = _read_graph(args.input, args.format)
    cliques, stats, wall_ms = _run(g, args.raw)
    sys.stdout.write(graph_io.write_cliques(cliques if args.ids else cliques.values()))
    if args.stats:
        record = _record(("file", g.n, None, None), stats, wall_ms, len(cliques))
        with open(args.stats, "w") as fh:
            fh.writelines(f"{k}={v}\n" for k, v in record.items())
    return 0


def _cmd_verify(args) -> int:
    g = _read_graph(args.input, args.format)
    cliques, _stats, _wall = _run(g, args.raw)
    report = oracle.diff(cliques.values(), oracle.bron_kerbosch(g))
    print(f"matched={report.matched} missing={len(report.missing)} extra={len(report.extra)}")
    if report.equal:
        return 0
    for label, group in (("missing", report.missing), ("extra", report.extra)):
        for c in sorted(group, key=sorted):
            print(f"{label}:", " ".join(str(v) for v in sorted(c)))
    return 1


def _parse_bench_spec(text: str):
    """Check and convert every line before any runs (format: README, "Bench
    matrix"). Returns ``(family, n, p, seed, verify, lineno)`` runs."""
    runs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        family, *items = line.split()
        if family not in FAMILIES:
            raise ParseError(f"unknown family {family!r}", lineno)
        options = FAMILIES[family][1]
        opts = {}
        for item in items:
            key, sep, value = item.partition("=")
            if not sep:
                raise ParseError(f"expected key=value, got {item!r}", lineno)
            if key not in ("n", "verify", *options):
                raise ParseError(f"{family} takes no option {key!r}", lineno)
            if key in opts:
                raise ParseError(f"duplicate option {key!r}", lineno)
            opts[key] = value
        if "n" in opts and "k" in opts:
            raise ParseError("give n or k, not both", lineno)
        verify = opts.get("verify", "false")
        if verify not in ("true", "false"):
            raise ParseError(f"verify must be true or false, got {verify!r}", lineno)
        try:
            n = int(opts["k"] if "k" in opts else opts["n"])
            p = float(opts["p"]) if "p" in options else None
            seed = int(opts.get("seed", "0")) if "seed" in options else None
        except KeyError as exc:
            raise ParseError(f"missing option {exc.args[0]!r}", lineno)
        except ValueError as exc:
            raise ParseError(str(exc), lineno)
        runs.append((family, n, p, seed, verify == "true", lineno))
    return runs


def _bench_row(g: Graph, family: str, p, seed, verify: bool) -> dict[str, str]:
    cliques, stats, wall_ms = _run(g, raw=False)
    verified = ""
    if verify:
        report = oracle.diff(cliques.values(), oracle.bron_kerbosch(g))
        verified = "true" if report.equal else "false"
    return {**_record((family, g.n, p, seed), stats, wall_ms, len(cliques)), "verified": verified}


def _cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError("--reps must be >= 1")
    with open(args.spec) as fh:
        runs = _parse_bench_spec(fh.read())
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS, lineterminator="\n")
        writer.writeheader()
        for family, n, p, seed, verify, lineno in runs:
            # One graph per spec line, solved --reps times.
            try:
                g = _generate(family, n, p, seed)
            except ValueError as exc:
                # The generators' range errors name the spec line too.
                raise ParseError(str(exc), lineno)
            for _ in range(args.reps):
                writer.writerow(_bench_row(g, family, p, seed, verify))
    return 0

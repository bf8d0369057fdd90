"""Command-line entry point.

Subcommands:

  generate   emit a family tournament (optionally with vertex 0 deleted)
  verify     exhaustively check one level's subset degree cap
  certify    print the recursive bound certificate for one subset
  search     exact max of min-out-degree at one subset size
  split      random balanced-split trials on any even-order digraph
  table      exact gap table as CSV

Data goes to standard output, diagnostics to standard error.  Exit
codes: 0 success or pass, 1 verification failure, 2 usage trouble
(bad flags, unreadable or malformed input, refused budgets, out of
memory).

`--input -` reads the digraph text format from standard input, as
bytes decoded the way a file's are, so `generate` pipes straight into
`search` or `split`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from collections import Counter
from pathlib import Path

from .certify import actual_min_out_degree, certify_bound
from .construction import (
    check_level,
    gap_table,
    punctured_tournament,
    ternary_tournament,
)
from .digraph import Digraph, VertexSet, read_digraph, write_digraph
from .experiments import split_experiment
from .search import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    branch_bound_max,
    enumerate_max,
    verify_bound,
)


def _load_digraph(path: str) -> Digraph:
    if path == "-" and sys.stdin is None:
        raise OSError("standard input is closed")
    read = sys.stdin.buffer.read if path == "-" else Path(path).read_bytes
    # a file and stdin decode alike, so a bad byte reads as a bad row; no
    # name keeps the bytes, so they are freed before the parse starts
    return read_digraph(read().decode("utf-8", "surrogateescape"))


def _ids_str(vs: VertexSet) -> str:
    return ",".join(map(str, vs.ids())) if len(vs) else "-"


def _parse_id_list(text: str) -> list[int]:
    """Comma-separated vertex ids, each an optional "-" and ASCII digits
    with blanks around it; empty tokens are skipped, repeats refused.
    int() alone would also read "+3", "1_0" and non-ASCII digits, so it
    parses the whole list only when the text holds none of them; the
    token walk below names the fault when that parse fails."""
    if text.isascii() and "+" not in text and "_" not in text:
        try:
            ids = list(map(int, filter(str.strip, text.split(","))))
        except ValueError:
            pass
        else:
            if len(set(ids)) == len(ids):
                return ids
    tokens = list(filter(None, map(str.strip, text.split(","))))
    bad = [t for t in tokens if not (t.isascii() and t.removeprefix("-").isdigit())]
    if bad:
        raise ValueError(f"malformed vertex id {bad[0]!r}")
    ids = list(map(int, tokens))
    if len(set(ids)) < len(ids):
        v = next(v for v, count in Counter(ids).items() if count > 1)
        raise ValueError(f"vertex {v} listed twice")
    return ids


def _report_lines(pairs) -> str:
    width = max(len(name) for name, _ in pairs)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in pairs)


def _cmd_generate(args) -> int:
    build = punctured_tournament if args.delete_vertex else ternary_tournament
    write_digraph(build(args.k), sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    outcome = verify_bound(args.k, budget=args.budget)
    r = outcome.report
    print(_report_lines([
        ("level", args.k),
        ("bound", outcome.bound),
        ("exact max", r.best_value),
        ("witness", _ids_str(r.best_set)),
        ("subsets", r.nodes_visited),
        ("elapsed", f"{r.elapsed:.3f}s"),
        ("verdict", "PASS" if outcome.passed else "FAIL"),
    ]))
    return 0 if outcome.passed else 1


def _cmd_certify(args) -> int:
    order = check_level(args.k)
    subset = VertexSet.from_ids(_parse_id_list(args.set), order)
    bound, cert = certify_bound(args.k, subset)
    cert.replay()
    actual = actual_min_out_degree(args.k, subset)
    print(_report_lines([
        ("level", args.k),
        ("subset", _ids_str(subset)),
        ("size", len(subset)),
        ("bound", bound),
        ("actual", actual),
    ]))
    print("certificate:")
    print(cert.render())
    return 0


def _cmd_search(args) -> int:
    digraph = _load_digraph(args.input)
    search = enumerate_max if args.engine == "blocks" else branch_bound_max
    report = search(digraph, args.size, budget=args.budget)
    print(_report_lines([
        ("vertices", digraph.n),
        ("size", args.size),
        ("engine", report.engine),
        ("best value", report.best_value),
        ("witness", _ids_str(report.best_set)),
        ("visited", report.nodes_visited),
        ("elapsed", f"{report.elapsed:.3f}s"),
    ]))
    print(
        f"RESULT max={report.best_value} set={_ids_str(report.best_set)} "
        f"exact={'true' if report.exact else 'false'} "
        f"visited={report.nodes_visited}"
    )
    return 0


def _cmd_split(args) -> int:
    digraph = _load_digraph(args.input)
    summary = split_experiment(digraph, args.trials, args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["trial", "seed", "delta_one", "delta_two"])
    for i, t in enumerate(summary.trials):
        writer.writerow([i, t.seed, t.delta_one, t.delta_two])
    print(
        f"split: {args.trials} trials, max delta {summary.max_delta}, "
        f"mean {summary.mean_delta:.4f}",
        file=sys.stderr,
    )
    return 0


def _cmd_table(args) -> int:
    rows = gap_table(args.kmax)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["k", "n", "s", "bound", "gap_num", "gap_den", "log3_s"])
    for row in rows:
        # display only: log base 3 of s, nan where s = 0
        log3_s = math.log(row.s, 3) if row.s > 0 else math.nan
        writer.writerow([row.k, row.reg_degree, row.s, row.bound,
                         row.gap_exact.numerator, row.gap_exact.denominator,
                         repr(log3_s)])
    return 0


# built once: in-process callers such as the benchmark call run many times
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisplit",
        description="recursive ternary tournaments: construction, "
                    "subset-degree verification, certificates, splits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a family digraph as text")
    p.add_argument("--k", type=int, required=True, help="recursion level")
    p.add_argument("--delete-vertex", action="store_true",
                   help="delete vertex 0 (the counterexample form)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="exhaustive subset degree cap check")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max subsets to visit (default %(default)s)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", help="recursive bound certificate for a subset")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--set", required=True,
                   help="comma-separated vertex ids (empty string for the empty set)")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search", help="exact max min-out-degree at one size")
    p.add_argument("--input", required=True, help="digraph file, or - for stdin")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--engine", choices=["auto", "blocks", "bb"],
                   default="auto",
                   help="auto and bb run branch and bound; blocks runs the "
                        "exhaustive sweep (at most 64 vertices) as its cross-check")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max subsets to visit under blocks, max search nodes "
                        "under auto and bb (default %(default)s)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("split", help="random balanced split trials, CSV out")
    p.add_argument("--input", required=True, help="digraph file, or - for stdin")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("table", help="exact gap table, CSV out")
    p.add_argument("--kmax", type=int, required=True)
    p.set_defaults(func=_cmd_table)

    return parser


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BudgetExceeded, ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"{args.command}: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""Benchmark of the trisplit command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-k3 --seed 0 --seconds 10 --trace 0

Each workload is a fixed sequence of real CLI commands, run in this
process through ``trisplit.cli.run`` with their output captured.  The
benchmark sets up the workload's inputs several times, each time
importing trisplit afresh, then runs whole rounds of the command
sequence until ``--seconds`` have passed, each round on a fresh import
as a new process would see it.  Every output is checked against the
independent computations in ``oracles.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (median set-up time,
median round time, peak RSS after set-up and the first round); with ``--trace 1`` the rounds alternate
untraced and traced, and the metrics are the per-layer medians of
``tracing.py`` plus the tracing overhead.  Spans of a traced run are
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import math
import random
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import oracles
from tracing import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

#: Set-ups per run: at least this many, and more while the set-up phase
#: is shorter than SETUP_SECONDS; the median is reported.
SETUP_MIN_REPS = 5
SETUP_SECONDS = 2.0


class WrongOutput(Exception):
    """A command's output disagrees with the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


def purge_trisplit() -> None:
    """Forget every trisplit module, so the next import starts afresh."""
    for name in [n for n in sys.modules if n == "trisplit" or n.startswith("trisplit.")]:
        del sys.modules[name]
    gc.collect()


def import_cli():
    return importlib.import_module("trisplit.cli")


class Runner:
    """Runs CLI commands in-process and counts attempts and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, cli, argv: list[str]) -> str | None:
        """Standard output of one command, or None if it did not exit 0."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except Exception:  # a crash is a failed command; the run goes on
            code = None
            err.write(traceback.format_exc())
        if code == 0:
            return out.getvalue()
        self.failed += 1
        print(f"failed (exit {code}): {' '.join(argv)[:120]}\n{err.getvalue()[-2000:]}",
              file=sys.stderr)
        return None


def report_fields(text: str) -> dict[str, str]:
    """The aligned 'name  value' lines a command prints, by name."""
    fields = {}
    for line in text.splitlines():
        parts = re.split(r" {2,}", line, maxsplit=1)
        if len(parts) == 2 and not line.startswith(" "):
            fields[parts[0]] = parts[1]
    return fields


def parse_ids(text: str) -> list[int]:
    return [] if text == "-" else [int(t) for t in text.split(",")]


class Workload:
    """A fixed command sequence, its inputs and its output checks."""

    name: str

    def __init__(self, seed: int, workdir: Path) -> None:
        pass

    def setup(self, cli, runner: Runner) -> None:
        """Build and write the inputs; timed as part of ``setup_s``."""

    def check_setup(self) -> None:
        """Check what the last set-up produced."""

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, outputs: list[str | None]) -> None:
        """Check one round's outputs; None stands for a failed command."""
        raise NotImplementedError


class VerifyK3(Workload):
    """``verify --k 3``: the paper's level-3 cap check, 2^26 subsets."""

    name = "verify-k3"

    def commands(self) -> list[list[str]]:
        return [["verify", "--k", "3"]]

    def check(self, outputs: list[str | None]) -> None:
        (out,) = outputs
        if out is None:
            return
        f = report_fields(out)
        best = max(oracles.level_maxima(3)[:14])
        expect(f.get("verdict") == "PASS", f"verdict {f.get('verdict')}")
        expect(int(f["bound"]) == oracles.level_cap(3) == 5, f"bound {f['bound']}")
        expect(int(f["exact max"]) == best, f"exact max {f['exact max']}, expected {best}")
        expect(int(f["subsets"]) == sum(math.comb(27, m) for m in range(14)),
               f"subsets {f['subsets']}")
        witness = parse_ids(f["witness"])
        expect(len(set(witness)) == len(witness) <= 13
               and all(0 <= v < 27 for v in witness), f"witness {f['witness']}")
        expect(oracles.block_score(witness, 3) == best,
               f"witness scores {oracles.block_score(witness, 3)}, expected {best}")


class SearchRand22(Workload):
    """``search --size 13`` with the auto and bb engines on random
    22-vertex tournaments drawn by the benchmark."""

    name = "search-rand22"
    VERTICES = 22
    SIZE = 13
    INSTANCES = 96

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.seeds = [rng.getrandbits(64) for _ in range(self.INSTANCES)]
        self.paths = [workdir / f"rand{i:03d}.txt" for i in range(self.INSTANCES)]
        self.rows: list[list[int]] = []

    def setup(self, cli, runner: Runner) -> None:
        self.rows = [oracles.random_tournament(self.VERTICES, s) for s in self.seeds]
        for rows, path in zip(self.rows, self.paths):
            text = cli.write_digraph(cli.Digraph(self.VERTICES, rows))
            path.write_text(text, encoding="ascii")

    def commands(self) -> list[list[str]]:
        return [["search", "--input", str(path), "--size", str(self.SIZE),
                 "--engine", engine]
                for path in self.paths for engine in ("auto", "bb")]

    def check(self, outputs: list[str | None]) -> None:
        ceiling = (self.SIZE - 1) // 2
        for i, rows in enumerate(self.rows):
            pair = outputs[2 * i:2 * i + 2]
            results = []
            for out in pair:
                if out is None:
                    continue
                result = dict(kv.split("=", 1) for kv in out.splitlines()[-1].split()[1:])
                value, witness = int(result["max"]), parse_ids(result["set"])
                expect(result["exact"] == "true", f"instance {i}: inexact result")
                expect(len(set(witness)) == len(witness) == self.SIZE
                       and all(0 <= v < self.VERTICES for v in witness),
                       f"instance {i}: witness {result['set']}")
                score = oracles.rows_min_out_degree(rows, witness)
                expect(score == value, f"instance {i}: witness scores {score}, reported {value}")
                expect(value <= ceiling, f"instance {i}: max {value} above {ceiling}")
                results.append(value)
            expect(len(set(results)) <= 1, f"instance {i}: engines disagree {results}")


class SplitCertify(Workload):
    """``split`` on the punctured level-7 tournament and ``certify --k 9``
    on half-size subsets of all three first argument shapes."""

    name = "split-certify"
    SPLIT_LEVEL = 7
    SPLITS = 2
    TRIALS = 200
    CHECKED_TRIALS = 8
    CERT_LEVEL = 9
    CERT_DRAWS = ["uniform", "empty_part", "two_small", "two_large"] * 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.path = workdir / f"punctured{self.SPLIT_LEVEL}.txt"
        rng = random.Random(seed)
        self.split_seeds = [rng.getrandbits(64) for _ in range(self.SPLITS)]
        self.checked = [sorted(rng.sample(range(self.TRIALS), self.CHECKED_TRIALS))
                        for _ in range(self.SPLITS)]
        self.spot_rows = rng.sample(range(3 ** self.SPLIT_LEVEL - 1), 16)
        self.draw_seed = rng.getrandbits(64)
        self.sets: list[list[int]] = []
        self.set_args: list[str] = []
        self.generated: str | None = None

    def setup(self, cli, runner: Runner) -> None:
        self.generated = runner.run(
            cli, ["generate", "--k", str(self.SPLIT_LEVEL), "--delete-vertex"])
        if self.generated is None:
            raise RuntimeError("generate failed; the workload has no input")
        self.path.write_text(self.generated, encoding="ascii")
        rng = random.Random(self.draw_seed)
        size = (3 ** self.CERT_LEVEL - 1) // 2
        self.sets = [
            oracles.draw_uniform(rng, self.CERT_LEVEL, size) if kind == "uniform"
            else oracles.draw_by_parts(
                rng, self.CERT_LEVEL, oracles.skewed_part_sizes(rng, self.CERT_LEVEL, kind))
            for kind in self.CERT_DRAWS]
        self.set_args = [",".join(map(str, ids)) for ids in self.sets]

    def check_setup(self) -> None:
        """Spot-check the generated punctured tournament's rows."""
        lines = self.generated.split("\n")
        n = 3 ** self.SPLIT_LEVEL - 1
        expect(lines[0] == str(n) and len(lines) == n + 2 and lines[-1] == "",
               "generate: wrong shape")
        for p in self.spot_rows:
            want = "".join("1" if oracles.trit_arc(p + 1, q + 1, self.SPLIT_LEVEL) else "0"
                           for q in range(n))
            expect(lines[p + 1] == want, f"generate: row {p} is wrong")

    def commands(self) -> list[list[str]]:
        splits = [["split", "--input", str(self.path), "--trials", str(self.TRIALS),
                   "--seed", str(s)] for s in self.split_seeds]
        certs = [["certify", "--k", str(self.CERT_LEVEL), "--set", arg]
                 for arg in self.set_args]
        return splits + certs

    def check(self, outputs: list[str | None]) -> None:
        for base, checked, out in zip(self.split_seeds, self.checked, outputs):
            if out is not None:
                self._check_split(base, checked, out)
        certs = outputs[self.SPLITS:]
        kinds = {self._check_certify(ids, arg, out)
                 for ids, arg, out in zip(self.sets, self.set_args, certs) if out is not None}
        if None not in certs:
            expect(kinds == {"empty_part", "two_small", "two_large"},
                   f"certify: shapes {sorted(kinds)}")

    def _check_split(self, base: int, checked: list[int], out: str) -> None:
        n = 3 ** self.SPLIT_LEVEL - 1
        cap = oracles.level_cap(self.SPLIT_LEVEL)
        lines = out.splitlines()
        expect(lines[0] == "trial,seed,delta_one,delta_two", "split: header")
        rows = [[int(x) for x in line.split(",")] for line in lines[1:]]
        expect(len(rows) == self.TRIALS, f"split: {len(rows)} rows")
        for i, (trial, seed, d1, d2) in enumerate(rows):
            expect(trial == i and seed == oracles.trial_seed(base, i),
                   f"split: row {i} has trial {trial} seed {seed}")
            expect(0 <= d1 <= cap and 0 <= d2 <= cap, f"split: row {i} deltas {d1},{d2}")
        for i in checked:
            half = oracles.balanced_half(n, rows[i][1])
            other = sorted(set(range(n)).difference(half))
            want = (oracles.punctured_score(half, self.SPLIT_LEVEL),
                    oracles.punctured_score(other, self.SPLIT_LEVEL))
            expect(tuple(rows[i][2:]) == want, f"split: row {i} deltas, expected {want}")

    def _check_certify(self, ids: list[int], arg: str, out: str) -> str:
        f = report_fields(out)
        expect(f.get("level") == str(self.CERT_LEVEL) and f.get("subset") == arg
               and f.get("size") == str(len(ids)), "certify: header lines")
        bound, actual = int(f["bound"]), int(f["actual"])
        score = oracles.block_score(ids, self.CERT_LEVEL)
        expect(actual == score, f"certify: actual {actual}, expected {score}")
        expect(actual <= bound <= oracles.level_cap(self.CERT_LEVEL),
               f"certify: actual {actual}, bound {bound}")
        lines = out.splitlines()
        kind = oracles.top_certificate_kind(ids, self.CERT_LEVEL)
        top = lines[lines.index("certificate:") + 1]
        expect(top.split()[0] == kind, f"certify: top node {top!r}, expected {kind}")
        return kind


WORKLOADS = {w.name: w for w in (VerifyK3, SearchRand22, SplitCertify)}


def set_up(workload: Workload, runner: Runner, tracer: Tracer | None) -> float:
    """One timed set-up: a fresh import of trisplit and the workload's inputs."""
    purge_trisplit()
    start = time.perf_counter()
    cli = import_cli()
    if tracer:
        tracer.install()
    workload.setup(cli, runner)
    return time.perf_counter() - start


def run_round(commands: list[list[str]], runner: Runner,
              tracer: Tracer | None) -> tuple[float, list[str | None]]:
    """One timed round of the command sequence on a fresh import."""
    purge_trisplit()
    cli = import_cli()
    if tracer:
        tracer.install()
    start = time.perf_counter()
    outputs = [runner.run(cli, argv) for argv in commands]
    return time.perf_counter() - start, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the workload's inputs (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trisplit" / "__init__.py").is_file():
        print(f"run.py: no trisplit sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  # imported once, so every timed set-up is alike
    origin = importlib.util.find_spec("trisplit").origin
    if Path(origin).parent != SRC / "trisplit":
        print(f"run.py: trisplit resolves to {origin}, not the checkout's", file=sys.stderr)
        return 2

    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    runner = Runner()
    tracer = Tracer() if args.trace else None

    setup_times, setup_segments = [], []
    start = time.perf_counter()
    while len(setup_times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_SECONDS:
        if tracer:
            tracer.segment = f"setup{len(setup_times)}"
            setup_segments.append(tracer.segment)
        setup_times.append(set_up(workload, runner, tracer))

    correct = True
    verified: set = set()

    def check(check_fn, key) -> None:
        nonlocal correct
        if key in verified:
            return
        try:
            check_fn()
            verified.add(key)
        except (WrongOutput, KeyError, ValueError, IndexError) as exc:
            correct = False
            print(f"{args.workload}: wrong output: {exc!r}", file=sys.stderr)

    check(workload.check_setup, "setup")
    commands = workload.commands()
    plain_times, traced_times, round_segments = [], [], []
    start = time.perf_counter()
    while not plain_times or time.perf_counter() - start < args.seconds:
        elapsed, outputs = run_round(commands, runner, None)
        plain_times.append(elapsed)
        if len(plain_times) == 1:
            # later rounds only add heap fragmentation, which varies from run to run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check(lambda: workload.check(outputs), tuple(outputs))
        if tracer:
            tracer.segment = f"round{len(traced_times)}"
            round_segments.append(tracer.segment)
            elapsed, outputs = run_round(commands, runner, tracer)
            traced_times.append(elapsed)
            check(lambda: workload.check(outputs), tuple(outputs))

    if tracer:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        overhead = statistics.median(traced_times) - statistics.median(plain_times)
        metrics = layer_metrics(tracer, setup_segments, round_segments, overhead)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "solve_s": {"value": statistics.median(plain_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"{args.workload}: seed {args.seed}, {len(setup_times)} set-ups, "
          f"{len(plain_times)} rounds, round times {[round(t, 3) for t in plain_times]}",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

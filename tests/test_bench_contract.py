"""The benchmark's traced layers and CLI hooks exist in the package.

``bench/tracing.py`` patches the functions named in its ``TRACED`` list,
reads its counts off the results' attributes, and ``bench/run.py``
writes its inputs through ``trisplit.cli`` and runs its command lines.
A rename or deletion in the package, or a dropped flag or choice,
would break the benchmark only when it runs; these checks catch it
with the test suite.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from trisplit import (VertexSet, branch_bound_max, certify_bound, enumerate_max,
                      punctured_tournament, split_experiment)
from trisplit.cli import build_parser

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in _load_tracing().TRACED])
def test_traced_names_resolve(module, attr):
    owner = importlib.import_module(f"trisplit.{module}")
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_benchmark_command_lines_parse(monkeypatch, tmp_path):
    # run.py imports its sibling modules by name, as when run as a script
    monkeypatch.syspath_prepend(str(TRACING.parent))
    spec = importlib.util.spec_from_file_location("bench_run", TRACING.parent / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    argvs = []

    class Recorder(bench_run.Runner):
        def run(self, cli, argv):
            argvs.append(argv)
            return super().run(cli, argv)

    cli = importlib.import_module("trisplit.cli")
    for workload_class in bench_run.WORKLOADS.values():
        workload = workload_class(0, tmp_path)
        workload.setup(cli, Recorder())
        argvs += workload.commands()
    assert ["generate", "--k", "7", "--delete-vertex"] in argvs
    assert {argv[0] for argv in argvs} == {"generate", "verify", "search", "split", "certify"}
    parser = build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)  # a refused line exits 2
        assert callable(args.func), argv


def test_cli_exposes_input_writers():
    cli = importlib.import_module("trisplit.cli")
    assert callable(cli.run)
    assert callable(cli.Digraph) and callable(cli.write_digraph)


def test_counted_attributes_exist_on_real_results():
    # the tracer reads its counts off these results; a renamed field
    # would otherwise surface only in a traced benchmark run
    counts = {span: opts["counts"] for _, _, span, opts in _load_tracing().TRACED
              if "counts" in opts}
    d = punctured_tournament(2)
    subset = VertexSet.from_ids([0, 1, 2, 3, 4, 9, 10, 11, 12, 13, 18, 19, 20], 27)
    calls = {
        "search.enumerate_max": (enumerate_max, (d, 4)),
        "search.branch_bound_max": (branch_bound_max, (d, 4)),
        "certify.certify_bound": (certify_bound, (3, subset)),
        "experiments.split_experiment": (split_experiment, (d, 3, 0)),
    }
    assert sorted(calls) == sorted(counts)
    for name, (fn, args) in calls.items():
        got = counts[name](args, {}, fn(*args))
        assert got and all(isinstance(v, int) and v >= 0 for v in got.values()), name
    assert enumerate_max(d, 4).pruned == 0


def _smoke_run(workload, trace=0):
    """One round of ``workload``, every output checked by the
    benchmark's own oracles, which do not import trisplit; returns its
    metrics."""
    root = TRACING.parent.parent
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    return result["metrics"]


def test_split_certify_smoke_run_passes_its_oracles():
    # the family at scale
    _smoke_run("split-certify")


def test_verify_k3_smoke_run_passes_its_oracles():
    # the sweep's exact maximum, subset count and witness over 2^26 subsets
    _smoke_run("verify-k3")


def test_search_rand22_smoke_run_passes_its_oracles():
    # auto and bb agree, exactly, on seeded random 22-vertex tournaments,
    # and each witness scores its value under the tournament ceiling
    _smoke_run("search-rand22")


def test_split_certify_traced_run_times_its_layers():
    # a function the tracer no longer wraps, say one the CLI imports
    # under another name, reads 0 in a traced run and nowhere else
    metrics = _smoke_run("split-certify", trace=1)
    declared = json.loads((TRACING.parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in declared["per_layer"]} <= set(metrics)
    for name in ["digraph.read_digraph_s", "digraph.write_digraph_s",
                 "certify.certify_bound_s", "experiments.split_experiment_s"]:
        assert metrics[name]["value"] > 0, name

"""Spans around trisplit's public functions, for the traced run.

The tracer patches each traced name everywhere it is looked up: in its
own module and in every trisplit module that imported it by name (the
CLI imports ``enumerate_max``, ``certify_bound`` and the rest directly),
and on the class for methods (``punctured_tournament`` reaches
``Digraph.delete_vertex`` through the class).  Spans stay in memory
and are written out once, when the run ends.

Every span carries the segment it ran in (one set-up or one round), so
per-layer figures are per segment and the benchmark reports their
median.  Times are inclusive of nested spans, except ``cli.self_s`` and
``experiments.sampling_s``, which subtract their direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    segment: str
    parent: int  # index into Tracer.spans, -1 for a top-level span
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _report_counts(**fields):
    """Counts read off the attributes of a call's result."""
    return lambda args, kwargs, result: {
        key: getattr(result, attr) for key, attr in fields.items()}


def _certificate_nodes(args, kwargs, result):
    _, cert = result
    nodes = 0
    while cert is not None:
        nodes, cert = nodes + 1, cert.child
    return {"nodes": nodes}


def _split_trials(args, kwargs, result):
    return {"trials": len(result.trials)}


# (module, attribute, span name, options); "Class.method" patches the class
TRACED = [
    ("construction", "ternary_tournament", "construction.ternary_tournament", {}),
    ("construction", "punctured_tournament", "construction.punctured_tournament", {}),
    ("digraph", "Digraph.delete_vertex", "digraph.delete_vertex", {}),
    ("digraph", "Digraph.min_out_degree", "digraph.min_out_degree", {}),
    ("digraph", "read_digraph", "digraph.read_digraph", {}),
    ("digraph", "write_digraph", "digraph.write_digraph", {}),
    ("search", "enumerate_max", "search.enumerate_max",
     {"counts": _report_counts(subsets="nodes_visited"), "track_alloc": True}),
    ("search", "branch_bound_max", "search.branch_bound_max",
     {"counts": _report_counts(nodes="nodes_visited", pruned="pruned")}),
    ("certify", "certify_bound", "certify.certify_bound",
     {"counts": _certificate_nodes}),
    ("certify", "BoundCertificate.replay", "certify.replay", {"outermost": True}),
    ("certify", "actual_min_out_degree", "certify.actual", {}),
    ("experiments", "split_experiment", "experiments.split_experiment",
     {"counts": _split_trials}),
    ("experiments", "random_balanced_split", "experiments.random_balanced_split", {}),
    ("cli", "run", "cli.run", {}),
]


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.segment = ""
        self._open: list[int] = []

    def wrap(self, name, fn, counts=None, outermost=False, track_alloc=False):
        """``fn`` recording one span per call.

        ``outermost`` skips calls made while a span of the same name is
        open (recursion); ``track_alloc`` records the peak of memory
        allocated during the call, which numpy buffers report to
        tracemalloc.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and any(tracer.spans[i].name == name for i in tracer._open):
                return fn(*args, **kwargs)
            span = Span(name, tracer.segment, tracer._open[-1] if tracer._open else -1)
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            if track_alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
                if track_alloc:
                    span.counts["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counts is not None:
                span.counts.update(counts(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Patch the freshly imported trisplit modules in ``sys.modules``."""
        modules = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
                   if name.startswith("trisplit.")}
        for module, attr, name, options in TRACED:
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(modules[module], owner_name)
                setattr(owner, method, self.wrap(name, getattr(owner, method), **options))
                continue
            original = getattr(modules[module], attr)
            wrapped = self.wrap(name, original, **options)
            for mod in modules.values():
                if vars(mod).get(attr) is original:
                    setattr(mod, attr, wrapped)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]), encoding="ascii")


# metric name -> (unit, phase); set-up metrics are medians over set-ups,
# the rest medians over traced rounds
LAYER_METRICS = {
    "construction.ternary_tournament_s": ("s", "round"),
    "construction.punctured_tournament_s": ("s", "setup"),
    "digraph.delete_vertex_s": ("s", "setup"),
    "digraph.write_digraph_s": ("s", "setup"),
    "digraph.read_digraph_s": ("s", "round"),
    "digraph.min_out_degree_s": ("s", "round"),
    "digraph.min_out_degree_calls": ("count", "round"),
    "search.enumerate_max_s": ("s", "round"),
    "search.enumerate_subsets": ("count", "round"),
    "search.enumerate_subsets_per_s": ("1/s", "round"),
    "search.enumerate_rss_growth_mb": ("MB", "round"),
    "search.branch_bound_max_s": ("s", "round"),
    "search.bb_nodes": ("count", "round"),
    "search.bb_pruned": ("count", "round"),
    "search.bb_nodes_per_s": ("1/s", "round"),
    "certify.certify_bound_s": ("s", "round"),
    "certify.cert_nodes": ("count", "round"),
    "certify.replay_s": ("s", "round"),
    "certify.actual_s": ("s", "round"),
    "experiments.split_experiment_s": ("s", "round"),
    "experiments.split_trials": ("count", "round"),
    "experiments.sampling_s": ("s", "round"),
    "cli.self_s": ("s", "round"),
}


def _segment_metrics(spans: list[Span], children: dict[int, list[int]],
                     all_spans: list[Span]) -> dict[str, float]:
    """Raw per-layer figures of one segment; ``spans`` are (index, span)."""
    time_by = defaultdict(float)
    count_by = defaultdict(int)
    calls_by = defaultdict(int)
    alloc_peak = 0
    self_by = defaultdict(float)
    for i, s in spans:
        time_by[s.name] += s.duration
        calls_by[s.name] += 1
        for key, value in s.counts.items():
            count_by[f"{s.name}.{key}"] += value
        alloc_peak = max(alloc_peak, s.counts.get("alloc_peak_bytes", 0))
        self_by[s.name] += s.duration - sum(all_spans[c].duration for c in children[i])

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    return {
        "construction.ternary_tournament_s": time_by["construction.ternary_tournament"],
        "construction.punctured_tournament_s": time_by["construction.punctured_tournament"],
        "digraph.delete_vertex_s": time_by["digraph.delete_vertex"],
        "digraph.write_digraph_s": time_by["digraph.write_digraph"],
        "digraph.read_digraph_s": time_by["digraph.read_digraph"],
        "digraph.min_out_degree_s": time_by["digraph.min_out_degree"],
        "digraph.min_out_degree_calls": calls_by["digraph.min_out_degree"],
        "search.enumerate_max_s": time_by["search.enumerate_max"],
        "search.enumerate_subsets": count_by["search.enumerate_max.subsets"],
        "search.enumerate_subsets_per_s": rate(count_by["search.enumerate_max.subsets"],
                                               time_by["search.enumerate_max"]),
        "search.enumerate_rss_growth_mb": alloc_peak / 2 ** 20,
        "search.branch_bound_max_s": time_by["search.branch_bound_max"],
        "search.bb_nodes": count_by["search.branch_bound_max.nodes"],
        "search.bb_pruned": count_by["search.branch_bound_max.pruned"],
        "search.bb_nodes_per_s": rate(count_by["search.branch_bound_max.nodes"],
                                      time_by["search.branch_bound_max"]),
        "certify.certify_bound_s": time_by["certify.certify_bound"],
        "certify.cert_nodes": count_by["certify.certify_bound.nodes"],
        "certify.replay_s": time_by["certify.replay"],
        "certify.actual_s": time_by["certify.actual"],
        "experiments.split_experiment_s": time_by["experiments.split_experiment"],
        "experiments.split_trials": count_by["experiments.split_experiment.trials"],
        "experiments.sampling_s": self_by["experiments.random_balanced_split"],
        "cli.self_s": self_by["cli.run"],
    }


def layer_metrics(tracer: Tracer, setups: list[str], rounds: list[str],
                  overhead_s: float) -> dict[str, dict]:
    """Median per-layer figures over the traced set-ups and rounds."""
    children: dict[int, list[int]] = defaultdict(list)
    by_segment: dict[str, list] = defaultdict(list)
    for i, s in enumerate(tracer.spans):
        if s.parent >= 0:
            children[s.parent].append(i)
        by_segment[s.segment].append((i, s))
    per_segment = {seg: _segment_metrics(by_segment[seg], children, tracer.spans)
                   for seg in setups + rounds}
    out = {}
    for name, (unit, phase) in LAYER_METRICS.items():
        segments = setups if phase == "setup" else rounds
        value = statistics.median(per_segment[seg][name] for seg in segments)
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out

"""Random balanced splits and exact gap tables.

The split harness samples uniform balanced bipartitions of an
even-order digraph and records the minimum out-degree of both halves.
Randomness comes from a self-contained 64-bit generator (splitmix
style) so runs are bit-identical across platforms and processes; each
trial draws from its own substream derived from the base seed and the
trial index, which keeps trials independent of execution order.

The gap table is pure integer/rational arithmetic: for each level it
reports the punctured tournament's minimum out-degree s, the subset
degree cap, and their exact gap s/2 - cap, which telescopes to
(level - 1)/2.  The logarithmic column is display only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .construction import level_params
from .digraph import Digraph, VertexSet

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(value: int) -> int:
    """Avalanche finalizer over 64 bits (xor-shift-multiply)."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit stream: state walks by a fixed odd constant,
    outputs pass through :func:`mix64`."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return mix64(self.state)

    def next_below(self, bound: int) -> int:
        """Uniform draw from [0, bound) by modulo reduction.

        The modulo bias is below bound/2**64, far under anything a
        desk-scale experiment can observe; taking the simple reduction
        keeps the stream layout trivially reproducible.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound


def substream_seed(seed: int, index: int) -> int:
    """Seed of the index-th substream of a base seed.

    Double mixing decorrelates both nearby seeds and nearby indices.
    """
    return mix64(mix64(seed) + index)


@dataclass(frozen=True)
class SplitTrial:
    """One sampled bipartition and the minimum out-degree of each half."""

    seed: int
    half_one: VertexSet
    delta_one: int
    delta_two: int

    @property
    def worst(self) -> int:
        return max(self.delta_one, self.delta_two)


@dataclass(frozen=True)
class SplitSummary:
    """Aggregate over an ordered run of split trials.

    ``max_delta`` and ``mean_delta`` summarize max(delta_one,
    delta_two) per trial.  Identical seed and trial count reproduce
    this record bit for bit.
    """

    seed: int
    trials: tuple[SplitTrial, ...]
    max_delta: int
    mean_delta: float


def random_balanced_split(digraph: Digraph, seed: int) -> SplitTrial:
    """Sample one uniform balanced bipartition and score both halves.

    The half is the first n/2 entries of a seeded partial shuffle of
    the vertex ids, which is uniform over all balanced halves.  Odd
    vertex counts have no balanced split and are rejected.
    """
    n = digraph.n
    if n % 2:
        raise ValueError(f"balanced split needs an even vertex count, got {n}")
    rng = SplitMix64(seed)
    ids = list(range(n))
    half = n // 2
    for i in range(half):
        j = i + rng.next_below(n - i)
        ids[i], ids[j] = ids[j], ids[i]
    half_one = VertexSet.from_ids(ids[:half], n)
    return SplitTrial(
        seed=seed,
        half_one=half_one,
        delta_one=digraph.min_out_degree(half_one),
        delta_two=digraph.min_out_degree(half_one.complement()),
    )


def split_experiment(digraph: Digraph, trials: int, seed: int) -> SplitSummary:
    """Run ``trials`` independent balanced splits from one base seed.

    Trial i uses substream_seed(seed, i), so any subset of trials can
    be re-run in isolation and the aggregation order is by index no
    matter how the work is scheduled.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    records = tuple(
        random_balanced_split(digraph, substream_seed(seed, i))
        for i in range(trials)
    )
    worsts = [t.worst for t in records]
    return SplitSummary(
        seed=seed,
        trials=records,
        max_delta=max(worsts),
        mean_delta=sum(worsts) / len(worsts),
    )


@dataclass(frozen=True)
class GapRow:
    """Exact per-level gap record.

    n is the half order (3**k - 1)/2, s = n - 1 is the punctured
    tournament's minimum out-degree, bound is the subset degree cap,
    and gap_exact = s/2 - bound, always equal to (k - 1)/2.  log3_s is
    informational only (nan when s = 0).
    """

    k: int
    n: int
    s: int
    bound: int
    gap_exact: Fraction
    log3_s: float


def gap_table(k_max: int) -> list[GapRow]:
    """Exact gap rows for levels 1..k_max.

    All identity fields are integers or rationals; nothing here
    rounds.  The level count is not capped by the construction size
    limit because no digraph is materialized.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    rows = []
    for k in range(1, k_max + 1):
        p = level_params(k)
        gap = Fraction(p.s, 2) - p.bound
        assert gap == Fraction(k - 1, 2)
        rows.append(GapRow(
            k=k,
            n=p.reg_degree,
            s=p.s,
            bound=p.bound,
            gap_exact=gap,
            log3_s=math.log(p.s, 3) if p.s > 0 else math.nan,
        ))
    return rows


def reference_curves(row: GapRow) -> tuple[float, float]:
    """Shape-only comparison curves for one gap row.

    Returns (log3 s, sqrt(s * log3 s)) with constant factor 1.  These
    mirror the known lower and upper growth shapes of the gap; the
    constants are not meaningful and nothing asserts against them.
    """
    if row.s > 1:
        lg = math.log(row.s, 3)
        return lg, math.sqrt(row.s * lg)
    if row.s == 1:
        return 0.0, 0.0
    return math.nan, math.nan

"""Random balanced splits.

The split harness samples uniform balanced bipartitions of an
even-order digraph and records the minimum out-degree of both halves.
Randomness comes from a self-contained 64-bit generator (splitmix
style) so runs are bit-identical across platforms and processes; each
trial draws from its own substream derived from the base seed and the
trial index, which keeps trials independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import block_min_degrees
from .construction import punctured_level
from .digraph import (Digraph, VertexSet, _decimal, _pack_rows, _rows_per_block,
                      _unpack_rows)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: uint64 elements (256 KB) of an array that :func:`mix64` mixes at once.
_MIX_BLOCK = 1 << 15


def mix64(value):
    """Avalanche finalizer over 64 bits (xor-shift-multiply).

    Takes an int or a numpy uint64 array, whose arithmetic wraps mod
    2**64 as the masks do for ints.  An array is mixed in one copy,
    updated in place ``_MIX_BLOCK`` elements at a time, so each shift's
    scratch is one block, not another array.
    """
    z = value & _MASK64
    if isinstance(z, int):
        return _mix(z)
    flat = z.reshape(-1)
    for lo in range(0, flat.size, _MIX_BLOCK):
        _mix(flat[lo:lo + _MIX_BLOCK])
    return z


def _mix(z):
    """:func:`mix64`'s steps on a 64-bit int or, in place, a uint64 array."""
    z ^= z >> 30
    z *= _MIX1
    z &= _MASK64
    z ^= z >> 27
    z *= _MIX2
    z &= _MASK64
    z ^= z >> 31
    return z


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
    """An ordered run of split trials.

    ``max_delta`` and ``mean_delta`` summarize max(delta_one,
    delta_two) per trial.  Identical seed and trial count reproduce
    this record bit for bit.
    """

    trials: tuple[SplitTrial, ...]

    @property
    def max_delta(self) -> int:
        return max(t.worst for t in self.trials)

    @property
    def mean_delta(self) -> float:
        return sum(t.worst for t in self.trials) / len(self.trials)


def random_balanced_split(digraph: Digraph, seed: int) -> SplitTrial:
    """Sample one uniform balanced bipartition and score both halves.

    The half is the first n/2 entries of a seeded partial shuffle of
    the vertex ids, which is uniform over all balanced halves.  Odd
    vertex counts have no balanced split and are rejected.  This is the
    scalar reference that ``split_experiment``'s blocks must match.
    """
    n = digraph.n
    if n % 2:
        raise ValueError(f"balanced split needs an even vertex count, got {n}")
    rng = SplitMix64(seed)
    perm = list(range(n))
    for i in range(n // 2):
        j = i + rng.next_below(n - i)
        perm[i], perm[j] = perm[j], perm[i]
    half = VertexSet.from_ids(perm[:n // 2], n)
    rest = VertexSet(half.bits ^ ((1 << n) - 1), n)
    return SplitTrial(seed=seed, half_one=half, delta_one=digraph.min_out_degree(half),
                      delta_two=digraph.min_out_degree(rest))


def split_experiment(digraph: Digraph, trials: int, seed: int) -> SplitSummary:
    """Run ``trials`` independent balanced splits from one base seed.

    Trial i uses substream_seed(seed, i), so any subset of trials can
    be re-run in isolation and the aggregation order is by index no
    matter how the work is scheduled.  Trials run in blocks of
    ``_rows_per_block(n)``, one n-wide membership row each, and a block
    is scored at once; each trial equals ``random_balanced_split`` on
    its seed.  The input is checked once against the punctured family
    (`punctured_level`, which builds the level below the input's); a
    family input is scored by its block recursion, any other by a pass
    over the adjacency (see `_split_block`).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {_decimal(trials)}")
    if digraph.n % 2:
        raise ValueError(f"balanced split needs an even vertex count, got {digraph.n}")
    level = punctured_level(digraph)
    per_block = _rows_per_block(digraph.n)
    records: list[SplitTrial] = []
    for start in range(0, trials, per_block):
        stop = min(trials, start + per_block)
        seeds = [substream_seed(seed, i) for i in range(start, stop)]
        records += _split_block(digraph, seeds, level)
    return SplitSummary(trials=tuple(records))


def _shuffled_halves(seeds: list[int], n: int) -> np.ndarray:
    """Membership matrix, one row per seed, of the sampled halves.

    Each row replays ``SplitMix64(seed)`` drawing ``next_below(n - i)``
    for i < n/2 and swapping position i with i + draw.  The streams of
    all rows advance together, held position-major: draw i of every
    seed is one contiguous row of a (half x seeds) uint64 matrix, and
    position p of trial t sits at p * seeds + t of one flat permutation.
    """
    half, count = n // 2, len(seeds)
    # draw i mixes the state seed + (i+1) * _GOLDEN
    state = (np.arange(1, half + 1, dtype=np.uint64)[:, None] * np.uint64(_GOLDEN)
             + np.array([s & _MASK64 for s in seeds], dtype=np.uint64))
    draws = mix64(state)
    del state
    draws %= (n - np.arange(half, dtype=np.uint64))[:, None]
    # every draw is below n, so it reads the same as an int64 index
    targets = draws.view(np.int64)
    # flat index of position i + draw in each trial
    targets += np.arange(half)[:, None]
    targets *= count
    targets += np.arange(count)
    perm = np.repeat(np.arange(n, dtype=np.int32), count)
    for i in range(half):
        row = perm[i * count:(i + 1) * count]
        taken = perm[targets[i]]
        perm[targets[i]] = row
        row[:] = taken
    member = np.zeros((count, n), dtype=bool)
    member[np.arange(count), perm[:half * count].reshape(half, count)] = True
    return member


def _split_block(digraph: Digraph, seeds: list[int], level: int | None) -> list[SplitTrial]:
    """One balanced split per seed, every seed's halves scored at once.

    When ``digraph`` is ``punctured_tournament(level)``, the halves are
    rows of a (seeds x 3**level) membership matrix whose column 0, the
    deleted vertex, stays empty.  `block_min_degrees` scores half one's
    rows and then, complemented in place, half two's: a few passes over
    3**level small ints per seed, not a product over n**2 cells.

    Otherwise (``level`` None) each chunk of adjacency rows takes one
    float32 product x of the membership matrix and the chunk: x[t, v]
    counts v's out-neighbours in trial t's half one.  Adding n to every
    vertex outside half one makes ``x.min`` half one's minimum
    out-degree; subtracting each vertex's out-degree plus n then makes
    ``-x.max`` half two's, with no second product and no copy of the
    chunk.  Every value lies within 2n of 0, below 2**24 at any order
    whose adjacency fits in memory, so the float32 arithmetic is exact.
    The product takes half the time of an AND+popcount on packed rows.
    """
    n = digraph.n
    member = _shuffled_halves(seeds, n)
    if level is not None:
        padded = np.zeros((len(seeds), n + 1), dtype=bool)
        padded[:, 1:] = member
        delta_one = block_min_degrees(level, padded)
        padded[:, 1:] ^= True
        delta_two = block_min_degrees(level, padded)
    else:
        weights = member.astype(np.float32)
        lifted_degree = np.array([row.bit_count() + n for row in digraph.rows], dtype=np.float32)
        # n tops every out-degree; both halves of an even n >= 2 have members; n = 0 runs no chunk
        delta_one = np.full(len(seeds), n, dtype=np.float32)
        delta_two = np.full(len(seeds), n, dtype=np.float32)
        chunk = _rows_per_block(n)
        for lo in range(0, n, chunk):
            # the chunk is unnamed, so it is freed before the next one is unpacked
            x = weights @ _unpack_rows(digraph.rows[lo:lo + chunk], n).astype(np.float32).T
            x += n
            x -= n * weights[:, lo:lo + chunk]
            np.minimum(delta_one, x.min(axis=1), out=delta_one)
            x -= lifted_degree[lo:lo + chunk]
            np.minimum(delta_two, -x.max(axis=1), out=delta_two)
    return [
        SplitTrial(seed=seed, half_one=VertexSet(bits, n), delta_one=int(d1), delta_two=int(d2))
        for seed, bits, d1, d2 in zip(seeds, _pack_rows(member), delta_one.tolist(),
                                      delta_two.tolist())
    ]

"""Seeded split trials and the deterministic generator."""

import hashlib
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisplit import (
    Digraph,
    SplitMix64,
    mix64,
    punctured_tournament,
    random_balanced_split,
    split_experiment,
    substream_seed,
    ternary_tournament,
)
from trisplit.certify import block_min_degrees
from trisplit.construction import punctured_level
from trisplit.experiments import _shuffled_halves

from naive import arcs_of, naive_min_out_degree


def reverse_arc(d, u, v):
    """``d`` with the arc between u and v turned around."""
    rows = list(d.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Digraph(d.n, rows)


def swap_ids(d, u, v):
    """``d`` with vertices u and v relabelled as each other."""
    def swapped(row):
        flip = (row >> u ^ row >> v) & 1
        return row ^ (flip << u | flip << v)
    rows = [swapped(row) for row in d.rows]
    rows[u], rows[v] = rows[v], rows[u]
    return Digraph(d.n, rows)


def no_blocks(level, member):
    raise AssertionError("a digraph outside the family was scored by its blocks")


class TestGenerator:
    def test_published_stream_for_seed_zero(self):
        # first outputs of the standard splitmix64 stream from seed 0,
        # as published in widely used test suites
        g = SplitMix64(0)
        assert g.next_u64() == 0xE220A8397B1DCDAF
        assert g.next_u64() == 0x6E789E6AA1B965F4
        assert g.next_u64() == 0x06C45D188009454F

    def test_stream_is_reproducible(self):
        a = SplitMix64(123456789)
        b = SplitMix64(123456789)
        assert [a.next_u64() for _ in range(10)] == \
               [b.next_u64() for _ in range(10)]

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_next_below_range_and_determinism(self):
        g = SplitMix64(5)
        draws = [g.next_below(7) for _ in range(200)]
        assert all(0 <= d < 7 for d in draws)
        assert len(set(draws)) == 7
        with pytest.raises(ValueError):
            g.next_below(0)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_mix64_is_a_64_bit_permutation_sample(self, x):
        y = mix64(x)
        assert 0 <= y < (1 << 64)
        assert mix64(x) == y

    @pytest.mark.parametrize("block", [1, 4, 1 << 15])
    def test_mix64_on_an_array_matches_the_ints(self, monkeypatch, block):
        # blocks that split the rows, and one that holds the whole array
        monkeypatch.setattr("trisplit.experiments._MIX_BLOCK", block)
        rng = random.Random(block)
        values = [[rng.getrandbits(64) for _ in range(5)] for _ in range(3)]
        state = np.array(values, dtype=np.uint64)
        mixed = mix64(state)
        assert mixed.tolist() == [[mix64(v) for v in row] for row in values]
        assert state.tolist() == values

    def test_substreams_differ(self):
        seeds = {substream_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert substream_seed(42, 0) != substream_seed(43, 0)


class TestBalancedSplit:
    def test_two_vertex_single_arc(self):
        d = Digraph.from_arcs(2, [(0, 1)])
        for seed in range(5):
            t = random_balanced_split(d, seed)
            assert (t.delta_one, t.delta_two) == (0, 0)

    def test_halves_partition_the_vertices(self):
        d = punctured_tournament(2)
        t = random_balanced_split(d, 11)
        assert len(t.half_one) == 4
        assert len(set(range(d.n)) - set(t.half_one)) == 4
        assert t.seed == 11

    def test_deltas_match_direct_recomputation(self):
        d = punctured_tournament(2)
        for seed in range(20):
            t = random_balanced_split(d, seed)
            arcs = arcs_of(d)
            assert t.delta_one == naive_min_out_degree(arcs, set(t.half_one.ids()))
            assert t.delta_two == naive_min_out_degree(
                arcs, set(range(d.n)) - set(t.half_one.ids()))

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            random_balanced_split(Digraph.from_arcs(3, []), 1)

    def test_level_three_seed_one_within_cap(self):
        t = random_balanced_split(punctured_tournament(3), 1)
        assert t.delta_one <= 5 and t.delta_two <= 5

    def test_roughly_uniform_membership(self):
        d = punctured_tournament(2)
        counts = [0] * 8
        trials = 2000
        for i in range(trials):
            t = random_balanced_split(d, substream_seed(0, i))
            for v in t.half_one:
                counts[v] += 1
        # each vertex lands in the sampled half with probability 1/2;
        # 5 sigma of Binomial(2000, 1/2) is ~112
        assert all(abs(c - trials / 2) < 150 for c in counts)


class TestSplitExperiment:
    def test_reproducible_bit_for_bit(self):
        d = punctured_tournament(2)
        a = split_experiment(d, 50, seed=9)
        b = split_experiment(d, 50, seed=9)
        assert a == b
        c = split_experiment(d, 50, seed=10)
        assert [t.half_one for t in c.trials] != [t.half_one for t in a.trials]

    def test_trials_use_indexed_substreams(self):
        d = punctured_tournament(2)
        summary = split_experiment(d, 10, seed=4)
        for i, t in enumerate(summary.trials):
            assert t == random_balanced_split(d, substream_seed(4, i))

    def test_aggregates(self):
        d = punctured_tournament(2)
        summary = split_experiment(d, 40, seed=0)
        worsts = [max(t.delta_one, t.delta_two) for t in summary.trials]
        assert summary.max_delta == max(worsts)
        assert summary.mean_delta == pytest.approx(sum(worsts) / 40)

    def test_needs_a_trial(self):
        with pytest.raises(ValueError):
            split_experiment(punctured_tournament(1), 0, seed=0)

    def test_odd_order_refused_before_sampling(self, monkeypatch):
        def sampled(seeds, n):
            raise AssertionError("an odd order was sampled")
        monkeypatch.setattr("trisplit.experiments._shuffled_halves", sampled)
        odd = Digraph.from_arcs(5, [])
        with pytest.raises(ValueError,
                           match="^balanced split needs an even vertex count, got 5$"):
            split_experiment(odd, 3, seed=0)
        with pytest.raises(ValueError, match="^need at least one trial, got 0$"):
            split_experiment(odd, 0, seed=0)

    def test_level_two_sampled_halves_never_beat_exhaustive(self):
        d = punctured_tournament(2)
        arcs = arcs_of(d)
        exhaustive = max(naive_min_out_degree(arcs, set(c))
                         for c in combinations(range(8), 4))
        assert exhaustive == 1
        summary = split_experiment(d, 1000, seed=3)
        assert summary.max_delta <= exhaustive


class TestLockstepSplit:
    """Blocks of trials share one pass over the adjacency; the result
    must not depend on how trials and adjacency rows are grouped."""

    @pytest.mark.parametrize("cells", [1, 26 * 3])
    def test_grouping_is_invisible(self, monkeypatch, cells):
        # cells 1: blocks of one trial, one adjacency row per chunk;
        # 26 * 3: blocks of three trials, chunks of three rows
        d = punctured_tournament(3)
        single = [random_balanced_split(d, substream_seed(6, i)) for i in range(10)]
        default = split_experiment(d, 10, seed=6)
        monkeypatch.setattr("trisplit.digraph._BLOCK_CELLS", cells)
        regrouped = split_experiment(d, 10, seed=6)
        assert regrouped == default
        assert list(regrouped.trials) == single
        assert [random_balanced_split(d, t.seed) for t in single] == single

    @pytest.mark.parametrize("cells", [1, 7, None])
    @settings(max_examples=150, deadline=None)
    @given(half=st.integers(0, 12), density=st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
           arc_seed=st.integers(0, 1 << 32), trials=st.integers(1, 5),
           seed=st.integers(0, (1 << 64) - 1))
    def test_matches_scalar_and_naive_on_any_digraph(self, cells, half, density, arc_seed,
                                                     trials, seed):
        # cells 1: one row per chunk and one trial per block; 7: a few rows
        # of the smallest orders; None: the default, every order in one block
        n = 2 * half
        rng = random.Random(arc_seed)
        d = Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n)
                                  if u != v and rng.random() < density])
        arcs = arcs_of(d)
        with pytest.MonkeyPatch.context() as mp:
            if cells:
                mp.setattr("trisplit.digraph._BLOCK_CELLS", cells)
            summary = split_experiment(d, trials, seed)
        for i, t in enumerate(summary.trials):
            assert t == random_balanced_split(d, substream_seed(seed, i))
            one = set(t.half_one.ids())
            assert len(one) == half
            assert t.delta_one == naive_min_out_degree(arcs, one)
            assert t.delta_two == naive_min_out_degree(arcs, set(range(n)) - one)

    @pytest.mark.parametrize("k", [7, 8])
    def test_block_memory_at_levels_seven_and_eight(self, k):
        # 200 trials on 2186 vertices fit in one block, and on 6560 vertices
        # run in blocks of 79; the block's scratch, not the adjacency, bounds
        # the peak
        d = punctured_tournament(k)
        tracemalloc.start()
        try:
            summary = split_experiment(d, 200, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(summary.trials) == 200
        assert peak < 7.5 * (1 << 20)

    @pytest.mark.parametrize("cells", [1, 26 * 3])
    def test_grouping_is_invisible_off_the_family(self, monkeypatch, cells):
        # the family's order with one arc reversed: recognition runs, fails,
        # and the product scores every block
        d = reverse_arc(punctured_tournament(3), 4, 17)
        monkeypatch.setattr("trisplit.experiments.block_min_degrees", no_blocks)
        single = [random_balanced_split(d, substream_seed(6, i)) for i in range(10)]
        default = split_experiment(d, 10, seed=6)
        monkeypatch.setattr("trisplit.digraph._BLOCK_CELLS", cells)
        regrouped = split_experiment(d, 10, seed=6)
        assert regrouped == default
        assert list(regrouped.trials) == single

    @pytest.mark.parametrize("cells", [None, 1, 26 * 3])
    def test_family_blocks_match_the_scalar_split(self, monkeypatch, cells):
        # every trial at levels 1-6, in blocks of the default size, of one
        # trial, and of 78 cells; each block's two halves take one call each
        scored = []

        def counted(level, member):
            scored.append(len(member))
            return block_min_degrees(level, member)

        monkeypatch.setattr("trisplit.experiments.block_min_degrees", counted)
        if cells:
            monkeypatch.setattr("trisplit.digraph._BLOCK_CELLS", cells)
        for k in range(1, 7):
            d = punctured_tournament(k)
            scored.clear()
            summary = split_experiment(d, 12, seed=k)
            assert sum(scored) == 2 * 12
            for i, t in enumerate(summary.trials):
                assert t == random_balanced_split(d, substream_seed(k, i))

    @pytest.mark.parametrize("k", [7, 8])
    def test_product_memory_at_levels_seven_and_eight(self, monkeypatch, k):
        # test_block_memory_at_levels_seven_and_eight off the family
        d = reverse_arc(punctured_tournament(k), 0, 3 ** k - 2)
        monkeypatch.setattr("trisplit.experiments.block_min_degrees", no_blocks)
        tracemalloc.start()
        try:
            summary = split_experiment(d, 200, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(summary.trials) == 200
        assert peak < 7.5 * (1 << 20)

    @pytest.mark.parametrize("k, mib", [(7, 4.78), (8, 5.09)])
    def test_family_memory_within_the_products(self, k, mib):
        # the family's blocks take no more than the product took on it:
        # its peaks at levels 7 and 8 were 4.78 and 5.09 MiB
        d = punctured_tournament(k)
        tracemalloc.start()
        try:
            split_experiment(d, 200, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * (1 << 20)

    def test_sampling_memory_at_level_eight(self):
        # one block of 79 trials on 6560 vertices: the draws take one
        # state-sized copy, mixed in place, beside the state itself
        seeds = [substream_seed(5, i) for i in range(79)]
        tracemalloc.start()
        try:
            member = _shuffled_halves(seeds, 6560)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert member.sum(axis=1).tolist() == [3280] * 79
        assert peak < 5 * (1 << 20)

    def test_frozen_digest(self):
        # digest of the trials of the per-trial scalar implementation
        summary = split_experiment(punctured_tournament(4), 300, seed=17)
        h = hashlib.sha256()
        for t in summary.trials:
            h.update(f"{t.seed},{t.half_one.bits},{t.delta_one},{t.delta_two}\n".encode())
        assert h.hexdigest() == \
            "f8a2a1cf3104506ea59da12c46ef6370f2b88c72774a5eb1c4cf10693486ad84"
        assert (summary.max_delta, summary.mean_delta) == (18, 16.053333333333335)

    def test_no_vertices(self):
        summary = split_experiment(Digraph(0, []), 3, seed=4)
        assert [(t.half_one.bits, t.delta_one, t.delta_two) for t in summary.trials] == \
            [(0, 0, 0)] * 3
        assert summary.trials[0].half_one.owner_n == 0

    def test_two_vertices(self):
        d = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        summary = split_experiment(d, 50, seed=1)
        halves = {t.half_one.ids() for t in summary.trials}
        assert halves == {(0,), (1,)}
        assert summary.max_delta == 0

    def test_raw_seed_is_recorded(self):
        # the generator reduces a seed mod 2**64; the record keeps it as given
        d = punctured_tournament(2)
        wide = random_balanced_split(d, (1 << 64) + 3)
        assert wide.seed == (1 << 64) + 3
        assert wide.half_one == random_balanced_split(d, 3).half_one


class TestPuncturedLevel:
    """Recognition of the punctured family, which picks split's scorer."""

    def test_family_recognised(self):
        for k in range(1, 8):
            assert punctured_level(punctured_tournament(k)) == k

    def test_other_orders_build_nothing(self, monkeypatch):
        def build(level):
            raise AssertionError("a level was built for an order outside the family")
        monkeypatch.setattr("trisplit.construction.ternary_tournament", build)
        # 3**11 - 1 is past the largest level
        for n in (0, 1, 3, 4, 7, 9, 25, 27, 730, 3 ** 11 - 1):
            assert punctured_level(Digraph(n, [0] * n)) is None

    @pytest.mark.parametrize("k", range(1, 7))
    def test_building_and_recognising_build_only_the_level_below(self, k, monkeypatch):
        d, calls = punctured_tournament(k), []

        def build(level):
            calls.append(level)
            return ternary_tournament(level)
        monkeypatch.setattr("trisplit.construction.ternary_tournament", build)
        assert punctured_tournament(k) == d
        assert calls == [k - 1]
        assert punctured_level(d) == k
        assert calls == [k - 1, k - 1]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_reversed_arc_and_swapped_ids_refused(self, k):
        d = punctured_tournament(k)
        n, third = d.n, 3 ** (k - 1)
        rng = random.Random(k)
        if k <= 3:
            # every pair: 325 at level 3
            pairs = set(combinations(range(n), 2))
        else:
            # the ends of the rows and of each third, and a few pairs at random
            ends = sorted({0, third - 2, third - 1, 2 * third - 1, n - 1} & set(range(n)))
            pairs = {(u, v) for u in ends for v in ends if u < v}
            pairs |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(10)}
        for u, v in sorted(pairs):
            assert punctured_level(reverse_arc(d, u, v)) is None
            assert punctured_level(swap_ids(d, u, v)) is None
        assert punctured_level(Digraph(n, [0] * n)) is None

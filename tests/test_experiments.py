"""Seeded split trials, the deterministic generator, gap tables."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisplit import (
    Digraph,
    GapRow,
    SplitMix64,
    gap_table,
    level_params,
    mix64,
    punctured_tournament,
    random_balanced_split,
    reference_curves,
    split_experiment,
    substream_seed,
)

from naive import arcs_of, naive_min_out_degree


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
        assert t.half_one.complement().ids() != t.half_one.ids()
        assert t.seed == 11

    def test_deltas_match_direct_recomputation(self):
        d = punctured_tournament(2)
        for seed in range(20):
            t = random_balanced_split(d, seed)
            arcs = arcs_of(d)
            assert t.delta_one == naive_min_out_degree(arcs, set(t.half_one.ids()))
            assert t.delta_two == naive_min_out_degree(
                arcs, set(t.half_one.complement().ids()))

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

    def test_level_two_sampled_halves_never_beat_exhaustive(self):
        d = punctured_tournament(2)
        arcs = arcs_of(d)
        exhaustive = max(naive_min_out_degree(arcs, set(c))
                         for c in combinations(range(8), 4))
        assert exhaustive == 1
        summary = split_experiment(d, 1000, seed=3)
        assert summary.max_delta <= exhaustive


class TestGapTable:
    def test_pinned_small_rows(self):
        rows = gap_table(3)
        assert [(r.k, r.n, r.s, r.bound) for r in rows] == \
            [(1, 1, 0, 0), (2, 4, 3, 1), (3, 13, 12, 5)]
        assert rows[0].gap_exact == 0
        assert rows[1].gap_exact == Fraction(1, 2)
        assert rows[2].gap_exact == 1

    def test_identity_holds_exactly_deep(self):
        for row in gap_table(40):
            assert row.gap_exact == Fraction(row.k - 1, 2)
            assert row.bound == level_params(row.k).bound

    def test_log_column_display_only(self):
        rows = gap_table(3)
        assert math.isnan(rows[0].log3_s)
        assert rows[2].log3_s == pytest.approx(math.log(12, 3))

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            gap_table(0)

    def test_reference_curves_shapes(self):
        rows = gap_table(3)
        lo, hi = reference_curves(rows[2])
        assert lo == pytest.approx(math.log(12, 3))
        assert hi == pytest.approx(math.sqrt(12 * math.log(12, 3)))
        nan_lo, nan_hi = reference_curves(rows[0])
        assert math.isnan(nan_lo) and math.isnan(nan_hi)
        unit = GapRow(k=0, n=0, s=1, bound=0, gap_exact=Fraction(0),
                      log3_s=0.0)
        assert reference_curves(unit) == (0.0, 0.0)

"""Exhaustive and branch-and-bound subset maximization."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trisplit.search
from trisplit import (
    DEFAULT_BUDGET,
    Digraph,
    SplitMix64,
    BudgetExceeded,
    VertexSet,
    branch_bound_max,
    enumerate_max,
    fixed_popcount_masks,
    punctured_tournament,
    subset_count,
    ternary_tournament,
    verify_bound,
)

from naive import naive_max_over_sizes, random_digraph, random_tournament


def from_arcset(arcs, n):
    return Digraph.from_arcs(n, sorted(arcs))


class TestMaskIteration:
    @pytest.mark.parametrize("n", range(0, 11))
    def test_matches_combinations(self, n):
        for m in range(n + 1):
            ref = [sum(1 << i for i in combo)
                   for combo in combinations(range(n), m)]
            got = list(fixed_popcount_masks(n, m))
            assert got == sorted(ref) == sorted(got)

    def test_size_zero_and_overfull(self):
        assert list(fixed_popcount_masks(5, 0)) == [0]
        assert list(fixed_popcount_masks(3, 4)) == []

    def test_counts(self):
        assert subset_count(10, range(4)) == 1 + 10 + 45 + 120
        assert subset_count(27, range(14)) == 1 << 26


class TestEnumerate:
    def test_family_examples(self):
        assert enumerate_max(ternary_tournament(1), range(2)).best_value == 0
        r = enumerate_max(ternary_tournament(2), range(5))
        assert r.best_value == 1
        assert r.nodes_visited == 256
        assert r.exact

    def test_directed_triangle_full(self):
        tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert enumerate_max(tri, 3).best_value == 1

    def test_single_size_is_int_or_iterable(self):
        t1 = ternary_tournament(1)
        assert enumerate_max(t1, 2).best_value == enumerate_max(t1, [2]).best_value

    def test_empty_family_only(self):
        r = enumerate_max(ternary_tournament(1), 0)
        assert r.best_value == 0 and len(r.best_set) == 0

    def test_budget_refusal_is_up_front(self):
        t2 = ternary_tournament(2)
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_max(t2, range(5), budget=100)
        assert exc.value.required == 256
        assert exc.value.budget == 100

    def test_bad_sizes(self):
        t1 = ternary_tournament(1)
        with pytest.raises(ValueError):
            enumerate_max(t1, 4)
        with pytest.raises(ValueError):
            enumerate_max(t1, [])
        with pytest.raises(ValueError):
            enumerate_max(t1, 1, engine="warp")

    def test_engines_agree_including_witness(self):
        rng = SplitMix64(20260817)
        for trial in range(25):
            n = 2 + rng.next_below(8)
            arcs = random_digraph(rng, n)
            d = from_arcset(arcs, n)
            sizes = range(n + 1)
            a = enumerate_max(d, sizes, engine="blocks")
            b = enumerate_max(d, sizes, engine="gosper")
            assert a.best_value == b.best_value
            assert a.best_set == b.best_set
            assert a.by_size == b.by_size

    def test_matches_naive_oracle(self):
        rng = SplitMix64(7)
        for trial in range(15):
            n = 1 + rng.next_below(7)
            arcs = random_digraph(rng, n)
            d = from_arcset(arcs, n)
            want_v, want_w = naive_max_over_sizes(arcs, n, range(n + 1))
            got = enumerate_max(d, range(n + 1))
            assert got.best_value == want_v
            assert got.best_set.ids() == want_w

    def test_monotone_sweep_consistency(self):
        d = punctured_tournament(2)
        sweep = enumerate_max(d, range(5))
        per_size = [enumerate_max(d, m) for m in range(5)]
        assert sweep.best_value == max(r.best_value for r in per_size)
        for m, r in enumerate(per_size):
            assert sweep.by_size[m] == r.by_size[m]

    def test_tournament_ceiling(self):
        rng = SplitMix64(99)
        for trial in range(10):
            n = 3 + rng.next_below(8)
            d = from_arcset(random_tournament(rng, n), n)
            for m in range(1, n + 1):
                assert enumerate_max(d, m).best_value <= (m - 1) // 2

    def test_threads_do_not_change_results(self, monkeypatch):
        monkeypatch.setattr(trisplit.search, "_CHUNK", 512)
        d = ternary_tournament(2)
        lone = enumerate_max(d, range(5), threads=1)
        team = enumerate_max(d, range(5), threads=4)
        assert (lone.best_value, lone.best_set, lone.by_size) == \
               (team.best_value, team.best_set, team.by_size)

    def test_engine_is_recorded(self):
        tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert enumerate_max(tri, 2).engine == "blocks"
        assert enumerate_max(tri, 2, engine="gosper").engine == "gosper"
        assert branch_bound_max(tri, 2).engine == "bb"

    def test_gosper_handles_more_than_64_vertices(self):
        d = Digraph.from_arcs(70, [(i, (i + 1) % 70) for i in range(70)])
        r = enumerate_max(d, 2)
        assert r.best_value == 0
        assert r.nodes_visited == comb(70, 2)
        with pytest.raises(ValueError):
            enumerate_max(d, 2, engine="blocks")


class TestBranchBound:
    def test_family_examples(self):
        assert branch_bound_max(ternary_tournament(2), 4).best_value == 1
        assert branch_bound_max(ternary_tournament(2), 1).best_value == 0
        assert branch_bound_max(punctured_tournament(1), 1).best_value == 0

    def test_size_zero(self):
        r = branch_bound_max(ternary_tournament(1), 0)
        assert r.best_value == 0 and len(r.best_set) == 0

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            branch_bound_max(ternary_tournament(1), 4)
        with pytest.raises(ValueError):
            branch_bound_max(ternary_tournament(1), -1)

    def test_agrees_with_enumerate_on_random_digraphs(self):
        rng = SplitMix64(314159)
        for trial in range(30):
            n = 2 + rng.next_below(9)
            d = from_arcset(random_digraph(rng, n), n)
            for m in range(n + 1):
                assert branch_bound_max(d, m).best_value == \
                    enumerate_max(d, m).best_value

    def test_pruning_never_changes_value(self):
        rng = SplitMix64(2718)
        for trial in range(12):
            n = 2 + rng.next_below(7)
            d = from_arcset(random_digraph(rng, n), n)
            for m in range(n + 1):
                fast = branch_bound_max(d, m, prune=True)
                slow = branch_bound_max(d, m, prune=False)
                assert fast.best_value == slow.best_value
                assert fast.nodes_visited <= slow.nodes_visited

    def test_witness_attains_value(self):
        d = punctured_tournament(2)
        for m in range(1, 9):
            r = branch_bound_max(d, m)
            assert d.min_out_degree(r.best_set) == r.best_value
            assert len(r.best_set) == m

    def test_visit_order_counts_frozen(self):
        # node and prune counts depend on the exact depth-first order
        d = punctured_tournament(2)
        assert [(r.nodes_visited, r.pruned)
                for r in (branch_bound_max(d, m) for m in range(1, 9))] == \
            [(2, 0), (3, 0), (16, 1), (9, 0), (83, 27), (7, 0), (15, 7), (9, 0)]
        t = ternary_tournament(2)
        assert [(r.nodes_visited, r.pruned)
                for r in (branch_bound_max(t, m, prune=False) for m in range(1, 10))] == \
            [(2, 0), (3, 0), (4, 0), (11, 0), (503, 126), (25, 2), (239, 84),
             (9, 0), (10, 0)]

    def test_node_budget(self):
        d = punctured_tournament(2)
        need = branch_bound_max(d, 5).nodes_visited
        assert branch_bound_max(d, 5, budget=need).nodes_visited == need
        with pytest.raises(BudgetExceeded) as exc:
            branch_bound_max(d, 5, budget=need - 1)
        assert exc.value.required == need
        assert exc.value.budget == need - 1

    def test_negative_node_budget_is_refused(self):
        cycle = Digraph.from_arcs(5, [(i, (i + 1) % 5) for i in range(5)])
        for size, budget in [(3, -1), (0, -1), (0, 0)]:
            with pytest.raises(BudgetExceeded) as exc:
                branch_bound_max(cycle, size, budget=budget)
            assert exc.value.required == 1
            assert exc.value.budget == budget

    @pytest.mark.slow
    def test_punctured_level_three_half(self):
        # exact value at the counterexample's own scale; equals the
        # level cap, and the exhaustive engine agrees
        r = branch_bound_max(punctured_tournament(3), 13)
        assert r.best_value == 5
        assert r.exact


class TestVerify:
    def test_small_levels(self):
        for k, want in [(0, 0), (1, 0), (2, 1)]:
            out = verify_bound(k)
            assert out.passed is True
            assert out.report.best_value == want
            assert out.report.exact

    def test_budget_refusal_has_no_verdict(self):
        with pytest.raises(BudgetExceeded) as exc:
            verify_bound(4)
        assert exc.value.required == sum(comb(81, i) for i in range(41))
        assert exc.value.budget == DEFAULT_BUDGET

    def test_budget_refusal_builds_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tournament built for a refused run")

        monkeypatch.setattr(trisplit.search, "ternary_tournament", refuse)
        with pytest.raises(BudgetExceeded) as exc:
            verify_bound(10)
        assert exc.value.required == 1 << (3 ** 10 - 1)
        assert str(exc.value).startswith("search needs at least 2**59048 subsets")

    def test_witness_level_two_frozen(self):
        assert verify_bound(2).report.best_set.ids() == (0, 1, 2)


def assert_blocks_kernel_exact(d, arcs, sizes, chunk, threads):
    """Blocks engine at a given chunk size and thread count against the
    gosper engine and the naive oracle, per size, witnesses included."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trisplit.search, "_CHUNK", chunk)
        got = enumerate_max(d, sizes, engine="blocks", threads=threads)
    want = enumerate_max(d, sizes, engine="gosper")
    assert got.by_size == want.by_size
    assert (got.best_value, got.best_set) == (want.best_value, want.best_set)
    for m in sizes:
        value, witness = naive_max_over_sizes(arcs, d.n, [m])
        assert got.by_size[m][0] == value
        assert got.by_size[m][1].ids() == witness


KERNEL_SETUPS = [(chunk, threads) for chunk in (1, 7, 64) for threads in (1, 2)]


@pytest.mark.parametrize("chunk,threads", KERNEL_SETUPS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       n=st.integers(min_value=1, max_value=11),
       density=st.integers(min_value=1, max_value=3))
def test_blocks_kernel_pruning_is_exact(chunk, threads, seed, n, density):
    rng = SplitMix64(seed)
    arcs = random_digraph(rng, n, density, 4)
    assert_blocks_kernel_exact(from_arcset(arcs, n), arcs, range(n + 1),
                               chunk, threads)


@pytest.mark.parametrize("threads", [1, 2])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       n=st.integers(min_value=33, max_value=40))
def test_blocks_kernel_on_64_bit_masks(threads, seed, n):
    rng = SplitMix64(seed)
    arcs = random_tournament(rng, n)
    assert_blocks_kernel_exact(from_arcset(arcs, n), arcs, range(1, 4),
                               64, threads)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=255), st.integers(min_value=2, max_value=6))
def test_enumerate_property_against_naive(seed, n):
    rng = SplitMix64(seed)
    arcs = random_digraph(rng, n)
    d = from_arcset(arcs, n)
    sizes = range(n + 1)
    want_v, want_w = naive_max_over_sizes(arcs, n, sizes)
    got = enumerate_max(d, sizes)
    assert got.best_value == want_v
    assert got.best_set.ids() == want_w

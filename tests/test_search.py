"""Exhaustive and branch-and-bound subset maximization."""

import random
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trisplit.search
from trisplit import (
    Digraph,
    SplitMix64,
    BudgetExceeded,
    VertexSet,
    branch_bound_max,
    enumerate_max,
    punctured_tournament,
    ternary_tournament,
    verify_bound,
)
from trisplit.search import _ABSENT, _CHUNK, _degree_table, _size_classes

from naive import (arcs_of, naive_max_over_sizes, naive_min_out_degree, random_digraph,
                   random_tournament)


def from_arcset(arcs, n):
    return Digraph.from_arcs(n, sorted(arcs))


class TestMaskIteration:
    """The sweep's half-width size classes: one ascending array per
    requested size, built up to the middle and complemented past it."""

    @pytest.mark.parametrize("n", range(0, 11))
    def test_matches_combinations(self, n):
        classes = _size_classes(n, range(n + 1))
        assert list(classes) == list(range(n + 1))
        for m, masks in classes.items():
            ref = sorted(sum(1 << i for i in combo)
                         for combo in combinations(range(n), m))
            assert masks.tolist() == ref

    def test_size_zero_and_past_the_middle(self):
        assert _size_classes(5, []) == {}
        assert {m: c.tolist() for m, c in _size_classes(5, [0]).items()} == {0: [0]}
        # C(24, 12) masks would take 10 MB; the classes past the middle
        # come from classes 0 and 1 alone
        tracemalloc.start()
        try:
            classes = _size_classes(24, [23, 24])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert classes[24].tolist() == [(1 << 24) - 1]
        assert classes[23].tolist() == sorted((1 << 24) - 1 - (1 << i) for i in range(24))
        assert peak < 4096


class TestDegreeTable:
    """``_degree_table`` entry by entry against Python popcounts, with
    ``_ABSENT`` added for an own vertex missing from the mask."""

    @staticmethod
    def expected(adj, masks, own):
        return [[(row & mask).bit_count()
                 + (_ABSENT if v in range(own.start, own.stop)
                    and not mask >> (v - own.start) & 1 else 0)
                 for mask in masks] for v, row in enumerate(adj)]

    def check(self, adj, masks, own):
        table = _degree_table(np.array(adj, np.uint32), np.array(masks, np.uint32), own)
        assert table.dtype == np.uint8
        assert table.tolist() == self.expected(adj, masks, own)
        return table

    @pytest.mark.parametrize("bits", [1, 13, 14, 32])
    @pytest.mark.parametrize("start", [0, 3])
    @pytest.mark.parametrize("more", [False, True])
    def test_matches_popcounts(self, bits, start, more):
        # vertices start..start+bits-1 own the half, two more rows follow;
        # mask counts below and above _CHUNK // n
        rng = random.Random(bits * 10 + start)
        n = start + bits + 2
        count = 3 * (_CHUNK // n) + 1 if more else _CHUNK // n - 1
        adj = [rng.getrandbits(bits) for _ in range(n)]
        masks = [rng.getrandbits(bits) for _ in range(count)]
        self.check(adj, masks, slice(start, start + bits))

    def test_complete_digraph_own_bit_31(self):
        # the high half of 64 vertices: vertex 63 is own bit 31.  A mask
        # missing it reads _ABSENT + 31 there, the other half's rows read
        # 32 against the full mask, and _ABSENT + 32 bounds both in uint8
        rows = [((1 << 64) - 1) ^ (1 << v) for v in range(64)]
        masks = [0, 1 << 31, (1 << 31) - 1, (1 << 32) - 1, 0x5555_5555]
        table = self.check([row >> 32 for row in rows], masks, slice(32, 64))
        assert table[63].tolist() == [_ABSENT, 0, _ABSENT + 31, 31, _ABSENT + 16]
        assert table[:32, 3].tolist() == [32] * 32


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

    def test_empty_digraph_at_size_zero(self):
        assert enumerate_max(Digraph(0, []), 0).by_size == {0: (0, VertexSet(0, 0))}

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

    def test_visited_subsets_are_charged_to_the_budget(self):
        # the sweep charges the 12 subsets of size 11 it visits
        d = Digraph.from_arcs(12, [(i, (i + 1) % 12) for i in range(12)])
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_max(d, 11, budget=11)
        assert (exc.value.required, exc.value.budget) == (12, 11)
        assert str(exc.value) == "search needs 12 subsets, budget allows 11"
        r = enumerate_max(d, 11, budget=12)
        assert (r.best_value, r.nodes_visited) == (0, 12)
        # every subset of each requested size: 1 + 10 + 45 + 120
        assert enumerate_max(Digraph.from_arcs(10, []), range(4)).nodes_visited == 176

    @pytest.mark.parametrize("count, args, text", [
        (1, (), "1 subset"), (2, (), "2 subsets"),
        (1, ("node", " or more"), "1 node or more"),
        (2, ("node", " or more"), "2 nodes or more"),
    ])
    def test_refusal_unit_agrees_with_its_count(self, count, args, text):
        assert str(BudgetExceeded(count, 0, *args)) == f"search needs {text}, budget allows 0"

    def test_engines_agree_including_witness(self):
        rng = SplitMix64(20260817)
        for trial in range(25):
            n = 2 + rng.next_below(8)
            d = from_arcset(random_digraph(rng, n), n)
            sweep = enumerate_max(d, range(n + 1))
            for m in range(n + 1):
                assert branch_bound_max(d, m).by_size[m] == sweep.by_size[m]

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

    def test_engine_is_recorded(self):
        tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert enumerate_max(tri, 2).engine == "blocks"
        assert branch_bound_max(tri, 2).engine == "bb"

    def test_sweep_needs_at_most_64_vertices(self):
        d = Digraph.from_arcs(70, [(i, (i + 1) % 70) for i in range(70)])
        with pytest.raises(ValueError, match="at most 64 vertices"):
            enumerate_max(d, 2)
        r = branch_bound_max(d, 2)
        assert (r.best_value, r.best_set.ids()) == (0, (0, 1))
        with pytest.raises(ValueError, match="subset size 71 out of range for n=70"):
            branch_bound_max(d, 71)

    def test_sweep_allocates_one_tile_not_a_size_class(self):
        # C(22, 11) = 705,432 masks would take 2.8 MB as one class array
        d = from_arcset(random_tournament(SplitMix64(22), 22), 22)
        tracemalloc.start()
        try:
            enumerate_max(d, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.parametrize("m", range(1, 9))
    def test_sweep_holds_32_bit_halves_above_32_vertices(self, m):
        # 40 vertices split into two 20-bit halves, held in uint32 words;
        # sizes 1-8 are those the default budget admits, and at size 7
        # the same sweep on uint64 words peaks at about 3.4 MiB
        d = from_arcset(random_tournament(SplitMix64(40), 40), 40)
        tracemalloc.start()
        try:
            sweep = enumerate_max(d, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20
        assert sweep.by_size[m] == branch_bound_max(d, m).by_size[m]

    @pytest.mark.parametrize("m", range(1, 7))
    def test_sweep_holds_one_row_block_table_at_64_vertices(self, m):
        # the size-5 high class has 201,376 masks, whose whole degree
        # table would take 12.9 MB; a row block's table takes 256 KB, and
        # the AND behind it one uint32 temporary of 1 MiB.  At size 6 the
        # two 906,192-mask half classes take 7.2 MB, against 58 MB for a
        # whole-class degree table
        d = from_arcset(random_tournament(SplitMix64(64), 64), 64)
        tracemalloc.start()
        try:
            sweep = enumerate_max(d, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (4 << 20 if m < 6 else 10 << 20)
        assert sweep.by_size[m] == branch_bound_max(d, m).by_size[m]

    def test_edge_sizes_on_64_bit_masks(self):
        # the high half sits at bits 32-63; sizes 62-64 take their half
        # classes past the middle as complements of small ones
        d = from_arcset(random_tournament(SplitMix64(64), 64), 64)
        sizes = [1, 2, 62, 63, 64]
        sweep = enumerate_max(d, sizes)
        assert sweep.nodes_visited == 64 + 2016 + 2016 + 64 + 1
        for m in sizes:
            assert sweep.by_size[m] == branch_bound_max(d, m).by_size[m]
        # complete digraph: half degrees reach 32 and member sums 63, the
        # most a non-member's _ABSENT marker must stay clear of in uint8
        full = Digraph.from_arcs(64, [(u, v) for u in range(64) for v in range(64) if u != v])
        sweep = enumerate_max(full, sizes)
        for m in sizes:
            value, witness = sweep.by_size[m]
            assert (value, witness.ids()) == (m - 1, tuple(range(m)))


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
            arcs = random_digraph(rng, n)
            d = from_arcset(arcs, n)
            for m in range(n + 1):
                r = branch_bound_max(d, m)
                assert (r.best_value, r.best_set.ids()) == \
                    naive_max_over_sizes(arcs, n, [m])

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
            [(2, 0), (3, 0), (8, 1), (7, 0), (17, 8), (7, 0), (15, 7), (9, 0)]

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

    def test_punctured_level_three_half(self):
        # exact value at the counterexample's own scale; equals the
        # level cap, and the exhaustive engine agrees.  The budget makes
        # a weaker bound refuse instead of running for seconds.
        r = branch_bound_max(punctured_tournament(3), 13, budget=100_000)
        assert r.best_value == 5
        assert r.exact

    def test_level_four_five_sets_within_budget(self):
        # 81-vertex regular tournament, max 1 below the ceiling of 2:
        # every regular 5-subtournament must be ruled out
        d = ternary_tournament(4)
        r = branch_bound_max(d, 5, budget=400_000)
        assert r.best_value == 1
        assert len(r.best_set) == 5
        arcs = arcs_of(d)
        assert naive_min_out_degree(arcs, set(r.best_set.ids())) == 1
        # the first attainer in id order: the 5-sets before it score 0
        assert r.best_set.ids() == (0, 1, 2, 3, 6)
        assert naive_min_out_degree(arcs, {0, 1, 2, 3, 4}) == 0
        assert naive_min_out_degree(arcs, {0, 1, 2, 3, 5}) == 0

    def test_every_five_vertex_tournament_against_naive(self):
        pairs = list(combinations(range(5), 2))
        for code in range(1 << len(pairs)):
            arcs = frozenset((u, v) if code >> i & 1 else (v, u)
                             for i, (u, v) in enumerate(pairs))
            d = from_arcset(arcs, 5)
            for m in range(6):
                r = branch_bound_max(d, m)
                assert (r.best_value, r.best_set.ids()) == \
                    naive_max_over_sizes(arcs, 5, [m]), (sorted(arcs), m)

    @pytest.mark.parametrize("seed, counts", enumerate([
        (57, 26), (73, 33), (105, 50), (285, 139),
        (425, 210), (347, 171), (467, 232), (49, 23)]))
    def test_matches_the_sweep_on_benchmark_shaped_tournaments(self, seed, counts):
        # 22 vertices at size 13: most have max 5 under the ceiling of 6,
        # so the arc-count bound must rule out regular 13-subtournaments;
        # the node and prune counts freeze the search tree
        d = from_arcset(random_tournament(SplitMix64(1000 + seed), 22), 22)
        r = branch_bound_max(d, 13)
        assert r.by_size == enumerate_max(d, 13).by_size
        assert (r.nodes_visited, r.pruned) == counts

    @pytest.mark.parametrize("build, counts", [
        (ternary_tournament, (12969, 6479)), (punctured_tournament, (6445, 3217))])
    def test_level_three_search_tree_frozen(self, build, counts):
        r = branch_bound_max(build(3), 13)
        assert r.best_value == 5
        assert (r.nodes_visited, r.pruned) == counts

    def test_core_among_arcless_vertices(self):
        # 1978 arcless vertices below a random 22-vertex tournament: the
        # first leaf cuts them, and the search then walks the core alone
        core = from_arcset(random_tournament(SplitMix64(1000), 22), 22)
        d = Digraph(2000, [0] * 1978 + [row << 1978 for row in core.rows])
        (value, witness), = branch_bound_max(core, 13).by_size.values()
        r = branch_bound_max(d, 13)
        assert r.by_size == {13: (value, VertexSet(witness.bits << 1978, 2000))}
        assert value == 5


class TestVerify:
    def test_small_levels(self):
        for k, want in [(0, 0), (1, 0), (2, 1)]:
            out = verify_bound(k)
            assert out.passed is True
            assert out.report.best_value == want
            assert out.report.exact

    def test_budget_refusal_has_no_verdict(self):
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_max(ternary_tournament(3), range(14), budget=2 ** 26 - 1)
        assert exc.value.required == 2 ** 26
        assert exc.value.budget == 2 ** 26 - 1

    def test_vertex_limit_refusal_builds_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tournament built for a refused run")

        monkeypatch.setattr(trisplit.search, "ternary_tournament", refuse)
        with pytest.raises(ValueError, match=r"^level 10 has 59049 vertices, "
                                             r"the exhaustive sweep takes at most 64$"):
            verify_bound(10)

    def test_witness_level_two_frozen(self):
        assert verify_bound(2).report.best_set.ids() == (0, 1, 2)


def test_reports_are_values():
    # a report carries no timing, so a repeated call returns an equal one
    d = punctured_tournament(2)
    calls = [lambda: enumerate_max(d, range(9)), lambda: branch_bound_max(d, 5),
             lambda: verify_bound(3)]
    for call in calls:
        assert call() == call()


def family_blocks(level):
    """Every block of 3**j consecutive ids, j = 1..level, as (first id, size)."""
    return [(s, 3 ** j) for j in range(1, level + 1) for s in range(0, 3 ** level, 3 ** j)]


def is_canonical(ids, level):
    """Whether ``ids`` holds the first vertex of every block it meets."""
    return all(s in ids for s, size in family_blocks(level)
               if any(s <= v < s + size for v in ids))


class TestCanonicalSweep:
    """``verify_bound`` sweeps only the canonical subsets, those holding
    the first vertex of every block they meet; the generic sweep over
    every subset, and at k <= 2 the naive oracle, are its oracles."""

    @pytest.mark.parametrize("chunk", [64, 1024, _CHUNK])
    @pytest.mark.parametrize("k", range(4))
    def test_matches_the_generic_sweep(self, k, chunk):
        want = enumerate_max(ternary_tournament(k), range((3 ** k - 1) // 2 + 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trisplit.search, "_CHUNK", chunk)
            got = verify_bound(k).report
        assert got == want

    @pytest.mark.parametrize("k", range(3))
    def test_matches_naive_per_size(self, k):
        d = ternary_tournament(k)
        arcs = arcs_of(d)
        for m, (value, witness) in verify_bound(k).report.by_size.items():
            assert (value, witness.ids()) == naive_max_over_sizes(arcs, d.n, [m])

    @pytest.mark.parametrize("k", range(5))
    def test_rotating_a_block_is_an_automorphism(self, k):
        # the sub-blocks of a block map to the next one, cyclically; a
        # row is a vertex's out-neighbours, so rows map to rows
        rows = ternary_tournament(k).rows
        for s, size in family_blocks(k):
            perm = [s + (v - s + size // 3) % size if s <= v < s + size else v
                    for v in range(len(rows))]
            image = [sum(1 << perm[w] for w in range(len(rows)) if row >> w & 1)
                     for row in rows]
            assert all(image[u] == rows[perm[u]] for u in range(len(rows)))

    @pytest.mark.parametrize("k", range(3))
    def test_smallest_attaining_set_is_canonical_naive(self, k):
        d = ternary_tournament(k)
        arcs = arcs_of(d)
        for m in range(d.n + 1):
            assert is_canonical(naive_max_over_sizes(arcs, d.n, [m])[1], k)

    def test_smallest_attaining_set_is_canonical_at_level_three(self):
        sweep = enumerate_max(ternary_tournament(3), range(28))
        assert all(is_canonical(w.ids(), 3) for _, w in sweep.by_size.values())


def assert_blocks_kernel_exact(d, arcs, sizes, chunk):
    """The sweep at a given chunk size against the naive oracle, per
    size and over all sizes, witnesses included."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trisplit.search, "_CHUNK", chunk)
        got = enumerate_max(d, sizes)
    assert (got.best_value, got.best_set.ids()) == naive_max_over_sizes(arcs, d.n, sizes)
    for m in sizes:
        value, witness = naive_max_over_sizes(arcs, d.n, [m])
        assert got.by_size[m][0] == value
        assert got.by_size[m][1].ids() == witness


@pytest.mark.parametrize("chunk", [1, 7, 64])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       n=st.integers(min_value=1, max_value=11),
       density=st.integers(min_value=1, max_value=3))
def test_blocks_kernel_is_exact_at_any_tile_size(chunk, seed, n, density):
    rng = SplitMix64(seed)
    arcs = random_digraph(rng, n, density, 4)
    assert_blocks_kernel_exact(from_arcset(arcs, n), arcs, range(n + 1), chunk)


@pytest.mark.parametrize("chunk", [1, 7, 64])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       n=st.integers(min_value=1, max_value=11))
def test_blocks_kernel_is_exact_on_tournaments_at_any_tile_size(chunk, seed, n):
    # tournaments have the lower ceiling (m-1)//2, which the sweep's
    # block skips stop at; the oracle knows no ceiling
    arcs = random_tournament(SplitMix64(seed), n)
    assert_blocks_kernel_exact(from_arcset(arcs, n), arcs, range(n + 1), chunk)


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("d", [ternary_tournament(2),
                               Digraph.from_arcs(7, [(i, (i + j) % 7) for i in range(7)
                                                     for j in (1, 2, 3)])],
                         ids=["ternary-9", "cyclic-7"])
def test_blocks_kernel_is_exact_on_regular_tournaments(chunk, d):
    # these reach the ceiling at every size but 5 and 7 of the ternary
    # 9, so later blocks of those sizes are skipped, and ties at the
    # ceiling decide the witness
    assert_blocks_kernel_exact(d, arcs_of(d), range(d.n + 1), chunk)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       n=st.integers(min_value=33, max_value=40))
def test_blocks_kernel_on_64_bit_masks(seed, n):
    rng = SplitMix64(seed)
    arcs = random_tournament(rng, n)
    assert_blocks_kernel_exact(from_arcset(arcs, n), arcs, range(1, 4), 64)


class TestThresholdSweep:
    """The sweep's threshold passes, its tie rule across tiles, and its
    row blocks shared by every size."""

    @pytest.mark.parametrize("n, m", [(20, 13), (22, 12), (24, 11), (26, 10)])
    def test_small_tiles_against_branch_and_bound(self, n, m):
        # at a 1024-word tile every middle part spans several column
        # blocks and row tiles, so the tie rule across tiles decides the
        # witness among the many sets attaining the maximum
        d = from_arcset(random_tournament(SplitMix64(n * 100 + m), n), n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trisplit.search, "_CHUNK", 1024)
            sweep = enumerate_max(d, m)
        assert sweep.by_size == branch_bound_max(d, m).by_size

    @pytest.mark.parametrize("n, chunk", [(18, 64), (19, 256), (20, 256), (21, 1024),
                                          (22, 1024)])
    def test_sizes_sharing_a_row_block_against_branch_and_bound(self, n, chunk):
        # every size that pairs with a high part sweeps that part's row
        # block tables in turn, each from its own running best; at these
        # chunks a middle part spans several row blocks and column blocks
        d = from_arcset(random_tournament(SplitMix64(n * 100 + chunk), n), n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trisplit.search, "_CHUNK", chunk)
            sweep = enumerate_max(d, range(n + 1))
        for m in range(n + 1):
            assert sweep.by_size[m] == branch_bound_max(d, m).by_size[m]

    @staticmethod
    def count_tables(monkeypatch):
        """Calls of the sweep's two table builders, counted as they run."""
        calls = Counter()

        def counted(name, build):
            def wrapper(*args):
                calls[name] += 1
                return build(*args)
            return wrapper

        for name in ("_degree_table", "_level_bits"):
            monkeypatch.setattr(trisplit.search, name,
                                counted(name, getattr(trisplit.search, name)))
        return calls

    def test_verify_builds_each_high_table_once(self, monkeypatch):
        # at 27 vertices every high class is one row block, whose table
        # serves every size and tile; a table per tile would take 1191.
        # Blocks of the sizes already at their ceiling build none: 118
        # and 104 calls without that skip
        calls = self.count_tables(monkeypatch)
        assert verify_bound(3).passed
        assert calls["_degree_table"] <= 73
        assert calls["_level_bits"] <= 59

    def test_verify_tables_only_canonical_masks(self, monkeypatch):
        # the generic sweep of the level-3 tournament tables 16,383 high
        # and 31,695 low masks, over 641 threshold passes (106 here)
        tabled = Counter()
        build = trisplit.search._degree_table

        def counted(adj, masks, own):
            tabled["high" if own.start else "low"] += len(masks)
            return build(adj, masks, own)

        monkeypatch.setattr(trisplit.search, "_degree_table", counted)
        assert verify_bound(3).passed
        assert tabled["high"] <= 1300
        assert tabled["low"] <= 3488

    def test_sixty_four_vertices_stop_at_the_ceiling(self, monkeypatch):
        # the first blocks reach the ceiling of 2 at size 6, so no later
        # row block or column block builds a table; 817 and 531 without
        # the skip
        arcs = random_tournament(SplitMix64(64), 64)
        calls = self.count_tables(monkeypatch)
        value, witness = enumerate_max(from_arcset(arcs, 64), 6).by_size[6]
        assert (value, witness.ids()) == (2, (0, 1, 2, 3, 5, 10))
        assert naive_min_out_degree(arcs, set(witness.ids())) == 2
        assert calls == {"_degree_table": 4, "_level_bits": 2}

    @pytest.mark.parametrize("chunk", [64, 1 << 15])
    def test_complete_digraph_climbs_to_m_minus_one(self, chunk):
        # the first tile of each size climbs every threshold 0..m-1
        full = Digraph.from_arcs(16, [(u, v) for u in range(16) for v in range(16) if u != v])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trisplit.search, "_CHUNK", chunk)
            sweep = enumerate_max(full, range(17))
        for m in range(17):
            value, witness = sweep.by_size[m]
            assert (value, witness.ids()) == (max(m - 1, 0), tuple(range(m)))

    def test_punctured_level_three_at_fourteen(self):
        # the value and witness branch and bound finds in 528,063 nodes
        r = enumerate_max(punctured_tournament(3), 14)
        assert r.nodes_visited == 9657700
        assert r.by_size[14][0] == 5
        assert r.by_size[14][1].ids() == (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 17, 18, 19, 20)


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


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       n=st.integers(min_value=1, max_value=10),
       density=st.integers(min_value=0, max_value=4))
@example(seed=9, n=10, density=0)
def test_branch_bound_witness_is_lexicographically_smallest(seed, n, density):
    # density 0 draws a tournament, so the ceiling stop is exercised too.
    # The example's 3-sets go wrong, (0, 3, 8) for (0, 2, 5), if a forced
    # pick reads a vertex's out-degree from before a cut at the same node.
    rng = SplitMix64(seed)
    arcs = random_tournament(rng, n) if density == 0 else random_digraph(rng, n, density, 4)
    d = from_arcset(arcs, n)
    for m in range(n + 1):
        r = branch_bound_max(d, m)
        assert (r.best_value, r.best_set.ids()) == naive_max_over_sizes(arcs, n, [m])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       n=st.integers(min_value=6, max_value=14), data=st.data())
def test_branch_bound_on_tournaments_at_large_sizes(seed, n, data):
    # sizes of at least n/2, where the arc-count bound can cut
    m = data.draw(st.integers(min_value=(n + 1) // 2, max_value=n))
    d = from_arcset(random_tournament(SplitMix64(seed), n), n)
    assert branch_bound_max(d, m).by_size == enumerate_max(d, m).by_size

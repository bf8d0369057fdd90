"""Recursive family construction, closed-form labels, parameters."""

import gc
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisplit import (
    Digraph,
    VertexSet,
    actual_min_out_degree,
    certify_bound,
    gap_table,
    level_params,
    min_identity_check,
    partition_parts,
    punctured_tournament,
    ternary_tournament,
    trit_arc,
    verify_bound,
)
from trisplit.certify import BASE, TWO_SMALL, BoundCertificate, block_min_degrees

from naive import arcs_of, naive_is_tournament


def test_level_params_closed_forms():
    for k in range(9):
        p = level_params(k)
        assert p.order == 3 ** k
        assert p.reg_degree == (3 ** k - 1) // 2
        assert p.s == p.reg_degree - 1
        assert 2 * p.bound == p.reg_degree - k


def test_level_params_rejects_negative():
    with pytest.raises(ValueError):
        level_params(-1)


def test_level_zero_and_one():
    t0 = ternary_tournament(0)
    assert t0.n == 1 and t0.arc_count() == 0
    t1 = ternary_tournament(1)
    assert t1 == Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def test_regularity_small_levels():
    # acceptance criterion covers k <= 8; spot-check the structure here
    for k in range(6):
        t = ternary_tournament(k)
        out, inn = t.degree_arrays()
        d = (3 ** k - 1) // 2
        assert (out == d).all() and (inn == d).all()
        assert t.is_tournament()


def test_built_level_is_freed():
    # nothing keeps a level alive once its caller drops it
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        level = ternary_tournament(8)
        assert tracemalloc.get_traced_memory()[1] - baseline > 4 << 20  # built here
        del level
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - baseline < 1 << 20
    finally:
        tracemalloc.stop()


def test_ternary_tournament_respects_limit():
    with pytest.raises(ValueError, match=r"^level 11 is above the largest level, "
                                         r"10 \(59049 vertices\)$"):
        ternary_tournament(11)


def test_trit_arc_matches_recursive_build():
    # acceptance criterion pushes this to k <= 7; keep the unit test quick
    for k in range(5):
        t = ternary_tournament(k)
        n = 3 ** k
        for u in range(n):
            row = t.rows[u]
            for v in range(n):
                if u != v:
                    assert trit_arc(u, v, k) == bool(row & (1 << v))


def test_trit_arc_matches_the_top_levels():
    """Sampled pairs at levels 8 to 10, past the gate's level 7.

    Level 10 is not built whole (about 440 MB of rows): each sampled
    row is glued from level 9's as `ternary_tournament` glues them, the
    copy's own row plus every arc into the next copy.
    """
    rng = random.Random(810)
    t8, t9 = ternary_tournament(8), ternary_tournament(9)
    n9 = t9.n

    def row10(u):
        copy, w = divmod(u, n9)
        return t9.rows[w] << copy * n9 | ((1 << n9) - 1) << (copy + 1) % 3 * n9

    for k, row in ((8, t8.rows.__getitem__), (9, t9.rows.__getitem__), (10, row10)):
        n = 3 ** k
        for _ in range(1000):
            u = rng.randrange(n)
            # half the partners share u's level-1 triangle, so low trits decide too
            v = rng.randrange(n) if rng.random() < 0.5 else u - u % 3 + rng.randrange(3)
            if u != v:
                assert trit_arc(u, v, k) == bool(row(u) >> v & 1)


# every function that takes a family level, each on a level it must refuse
LEVEL_ENTRY_POINTS = {
    "ternary_tournament": ternary_tournament,
    "punctured_tournament": punctured_tournament,
    "trit_arc": lambda k: trit_arc(0, 1, k),
    "verify_bound": verify_bound,
    "partition_parts": lambda k: partition_parts(VertexSet(0, 3), k),
    "certify_bound": lambda k: certify_bound(k, VertexSet(0, 3)),
    "actual_min_out_degree": lambda k: actual_min_out_degree(k, VertexSet(0, 3)),
    "block_min_degrees": lambda k: block_min_degrees(k, np.zeros((1, 3), dtype=bool)),
    "min_identity_check": lambda k: min_identity_check(k, VertexSet(0, 3)),
    "replay_base": lambda k: BoundCertificate(BASE, k, VertexSet(0, 3), 0).replay(),
    "replay_two_small": lambda k: BoundCertificate(
        TWO_SMALL, k, VertexSet(0, 3), 0, rotation=0).replay(),
}
REFUSED_LEVELS = {
    -1: "level must be >= 0, got -1",
    11: "level 11 is above the largest level, 10 (59049 vertices)",
    10 ** 8: "level 100000000 is above the largest level, 10 (59049 vertices)",
}


@pytest.mark.parametrize("level", sorted(REFUSED_LEVELS))
@pytest.mark.parametrize("name", sorted(LEVEL_ENTRY_POINTS))
def test_level_entry_point_refuses_through_check_level(name, level):
    with pytest.raises(ValueError) as refused:
        LEVEL_ENTRY_POINTS[name](level)
    assert str(refused.value) == REFUSED_LEVELS[level]


def test_level_refusals_take_bounded_time():
    # 3**100000000 is never computed, so the whole table is quick
    start = time.perf_counter()
    for call in LEVEL_ENTRY_POINTS.values():
        for level in REFUSED_LEVELS:
            with pytest.raises(ValueError):
                call(level)
    assert time.perf_counter() - start < 1.0


def test_trit_arc_rejects_bad_input():
    with pytest.raises(ValueError):
        trit_arc(0, 0, 2)
    with pytest.raises(ValueError):
        trit_arc(0, 9, 2)
    with pytest.raises(ValueError):
        trit_arc(-1, 0, 2)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.integers(min_value=0, max_value=3 ** k - 1),
        st.integers(min_value=0, max_value=3 ** k - 1))))
def test_trit_arc_antisymmetric(kuv):
    k, u, v = kuv
    if u != v:
        assert trit_arc(u, v, k) != trit_arc(v, u, k)


class TestPunctured:
    def test_needs_level_one(self):
        with pytest.raises(ValueError):
            punctured_tournament(0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_order_and_min_degree(self, k):
        d = punctured_tournament(k)
        n = (3 ** k - 1) // 2
        assert d.n == 2 * n
        assert d.is_tournament()
        assert d.min_out_degree() == n - 1

    def test_exactly_half_attain_min(self):
        # the deleted vertex's in-neighbors each lose one out-arc
        for k in (1, 2, 3):
            d = punctured_tournament(k)
            n = (3 ** k - 1) // 2
            out, _ = d.degree_arrays()
            assert (out == n - 1).sum() == n
            assert set(out.tolist()) == {n - 1, n}

    def test_matches_manual_deletion(self):
        for k in range(1, 7):
            assert punctured_tournament(k) == ternary_tournament(k).delete_vertex(0)

    def test_level_eight_holds_one_copy_of_the_rows(self):
        # the 6560 rows take about 5.3 MiB, so a second copy of them
        # would pass the bound
        tracemalloc.start()
        try:
            d = punctured_tournament(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 << 20
        assert d.n == 6560

    def test_still_a_tournament_naive(self):
        d = punctured_tournament(2)
        assert naive_is_tournament(arcs_of(d), d.n)


class TestGapTable:
    def test_pinned_small_rows(self):
        rows = gap_table(3)
        assert [(r.k, r.reg_degree, r.s, r.bound) for r in rows] == \
            [(1, 1, 0, 0), (2, 4, 3, 1), (3, 13, 12, 5)]
        assert rows[0].gap_exact == 0
        assert rows[1].gap_exact == Fraction(1, 2)
        assert rows[2].gap_exact == 1

    def test_identity_holds_exactly_deep(self):
        for row in gap_table(40):
            assert row.gap_exact == Fraction(row.k - 1, 2)
            assert 2 * row.bound == (3 ** row.k - 1) // 2 - row.k

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            gap_table(0)

    def test_rejects_unprintable_table(self):
        assert gap_table(9000)[-1].k == 9000
        with pytest.raises(ValueError, match="k_max must be <= 9000, got 9001"):
            gap_table(9001)

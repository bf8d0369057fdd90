"""Recursive family construction, closed-form labels, parameters."""

import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisplit import (
    Digraph,
    gap_table,
    level_params,
    punctured_tournament,
    ternary_tournament,
    trit_arc,
)

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
        for k in (1, 2, 3):
            assert punctured_tournament(k) == ternary_tournament(k).delete_vertex(0)

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

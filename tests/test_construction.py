"""Recursive family construction, closed-form labels, parameters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisplit import (
    Digraph,
    compose_cyclic,
    level_params,
    punctured_tournament,
    ternary_tournament,
    trit_arc,
    trits,
    vertex_from_trits,
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


def test_builds_are_cached_and_shared():
    assert ternary_tournament(2) is ternary_tournament(2)


def test_regularity_small_levels():
    # acceptance criterion covers k <= 8; spot-check the structure here
    for k in range(6):
        t = ternary_tournament(k)
        out, inn = t.degree_arrays()
        d = (3 ** k - 1) // 2
        assert (out == d).all() and (inn == d).all()
        assert t.is_tournament()


def test_compose_cyclic_block_arcs():
    a = Digraph.from_arcs(1, [])
    b = Digraph.from_arcs(2, [(0, 1)])
    c = Digraph.from_arcs(1, [])
    d = compose_cyclic(a, b, c)
    # blocks: a = {0}, b = {1, 2}, c = {3}
    expected = {(0, 1), (0, 2),          # a -> b
                (1, 3), (2, 3),          # b -> c
                (3, 0),                  # c -> a
                (1, 2)}                  # inside b
    assert arcs_of(d) == expected


def test_compose_cyclic_respects_limit():
    a = ternary_tournament(1)
    with pytest.raises(ValueError):
        compose_cyclic(a, a, a, max_vertices=8)


def test_ternary_tournament_respects_limit():
    with pytest.raises(ValueError):
        ternary_tournament(3, max_vertices=26)


def test_trits_roundtrip_exhaustive_small():
    for k in range(4):
        for v in range(3 ** k):
            ds = trits(v, k)
            assert len(ds) == k
            assert all(0 <= t <= 2 for t in ds)
            assert vertex_from_trits(ds) == v


@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda k: st.tuples(st.just(k),
                        st.integers(min_value=0, max_value=3 ** k - 1))))
def test_trits_roundtrip_random(kv):
    k, v = kv
    assert vertex_from_trits(trits(v, k)) == v


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

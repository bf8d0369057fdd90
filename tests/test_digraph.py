"""Dense digraph container, vertex sets, and the text format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisplit import (
    Digraph,
    DigraphFormatError,
    DimensionError,
    VertexSet,
    read_digraph,
    ternary_tournament,
    write_digraph,
)

from naive import arcs_of, naive_induced_arcs, naive_is_tournament, naive_min_out_degree


def digraphs(max_n=12):
    """Strategy: random digraph as (n, arc set) pairs lifted to Digraph."""
    def build(n, bits):
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and bits & (1 << (u * n + v))]
        return Digraph.from_arcs(n, arcs)
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.builds(build, st.just(n),
                            st.integers(min_value=0, max_value=(1 << (n * n)) - 1))
    )


def subsets_of(n):
    return st.integers(min_value=0, max_value=(1 << n) - 1).map(
        lambda bits: VertexSet(bits, n))


class TestVertexSet:
    def test_from_ids_roundtrip(self):
        vs = VertexSet.from_ids([4, 0, 2], 6)
        assert vs.ids() == (0, 2, 4)
        assert len(vs) == 3
        assert 2 in vs and 1 not in vs
        assert list(vs) == [0, 2, 4]

    def test_complement(self):
        vs = VertexSet.from_ids([0, 3], 4)
        assert vs.complement().ids() == (1, 2)
        assert VertexSet.empty(4).complement() == VertexSet.full(4)

    def test_out_of_range_bits(self):
        with pytest.raises(ValueError):
            VertexSet(1 << 5, 5)
        with pytest.raises(ValueError):
            VertexSet(-1, 3)
        with pytest.raises(ValueError):
            VertexSet.from_ids([3], 3)

    def test_duplicate_ids_collapse(self):
        assert VertexSet.from_ids([1, 1, 1], 4) == VertexSet.from_ids([1], 4)

    @given(st.integers(min_value=0, max_value=10).flatmap(
        lambda n: st.tuples(st.just(n), subsets_of(n))))
    def test_complement_involution(self, n_vs):
        n, vs = n_vs
        assert vs.complement().complement() == vs
        assert len(vs) + len(vs.complement()) == n


class TestDigraph:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            Digraph(2, [1, 0])        # self-loop at 0
        with pytest.raises(ValueError):
            Digraph(2, [2, 4])        # row bit out of range / loop at 1
        with pytest.raises(ValueError):
            Digraph(1, [])            # row count mismatch
        with pytest.raises(ValueError):
            Digraph(-1, [])

    def test_immutable(self):
        d = Digraph.from_arcs(2, [(0, 1)])
        with pytest.raises(AttributeError):
            d.n = 3
        assert isinstance(d.rows, tuple)

    def test_from_arcs_and_accessors(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert d.arc(0, 1) and not d.arc(1, 0)
        assert sorted(d.arcs()) == [(0, 1), (1, 2), (2, 0)]
        assert d.arc_count() == 3
        assert d.out_degree(0) == 1
        assert d.is_tournament()

    def test_from_arcs_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            Digraph.from_arcs(2, [(0, 0)])
        with pytest.raises(ValueError):
            Digraph.from_arcs(2, [(0, 2)])

    def test_eq_hash(self):
        a = Digraph.from_arcs(2, [(0, 1)])
        b = Digraph(2, [2, 0])
        assert a == b and hash(a) == hash(b)
        assert a != Digraph.from_arcs(2, [(1, 0)])

    def test_out_degree_in_requires_membership(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        s = VertexSet.from_ids([0, 1], 3)
        assert d.out_degree_in(s, 0) == 1
        with pytest.raises(ValueError):
            d.out_degree_in(s, 2)
        with pytest.raises(DimensionError):
            d.out_degree_in(VertexSet.from_ids([0], 4), 0)

    def test_min_out_degree_empty_and_full(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert d.min_out_degree() == 1
        assert d.min_out_degree(VertexSet.empty(3)) == 0
        assert Digraph(0, []).min_out_degree() == 0

    @settings(max_examples=150)
    @given(digraphs(10).flatmap(
        lambda d: st.tuples(st.just(d), subsets_of(d.n))))
    def test_min_out_degree_matches_naive(self, d_vs):
        d, vs = d_vs
        assert d.min_out_degree(vs) == naive_min_out_degree(arcs_of(d), set(vs.ids()))

    @settings(max_examples=100)
    @given(digraphs(9).flatmap(
        lambda d: st.tuples(st.just(d), subsets_of(d.n))))
    def test_induced_matches_naive(self, d_vs):
        d, vs = d_vs
        sub = d.induced(vs)
        assert sub.n == len(vs)
        assert arcs_of(sub) == naive_induced_arcs(arcs_of(d), set(vs.ids()))

    @settings(max_examples=100)
    @given(digraphs(8))
    def test_is_tournament_matches_naive(self, d):
        assert d.is_tournament() == naive_is_tournament(arcs_of(d), d.n)

    def test_delete_vertex(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        sub = d.delete_vertex(1)
        assert sub.n == 2
        # survivors 0, 2 relabel to 0, 1; only arc was 2 -> 0
        assert sorted(sub.arcs()) == [(1, 0)]
        with pytest.raises(ValueError):
            d.delete_vertex(3)

    @settings(max_examples=50)
    @given(digraphs(10))
    def test_delete_vertex_matches_induced(self, d):
        for v in range(d.n):
            rest = VertexSet(d.full_set().bits ^ (1 << v), d.n)
            assert d.delete_vertex(v) == d.induced(rest)

    def test_delete_vertex_matches_induced_level_three(self):
        d = ternary_tournament(3)
        for v in range(d.n):
            rest = VertexSet(d.full_set().bits ^ (1 << v), d.n)
            assert d.delete_vertex(v) == d.induced(rest)

    @settings(max_examples=75)
    @given(digraphs(10))
    def test_degree_arrays_match_loops(self, d):
        out, inn = d.degree_arrays()
        assert out.tolist() == [d.out_degree(v) for v in range(d.n)]
        assert inn.tolist() == [sum(d.arc(u, v) for u in range(d.n) if u != v)
                                for v in range(d.n)]


class TestTextFormat:
    def test_write_exact_triangle(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert write_digraph(d) == "3\n010\n001\n100\n"

    def test_empty_digraph(self):
        assert write_digraph(Digraph(0, [])) == "0\n"
        assert read_digraph("0\n") == Digraph(0, [])

    @settings(max_examples=150)
    @given(digraphs(12))
    def test_roundtrip(self, d):
        assert read_digraph(write_digraph(d)) == d

    @pytest.mark.parametrize("text", [
        "",                        # no header
        "2\n01\n",                 # missing row
        "2\n01\n10\n00\n",         # extra row
        "2\n010\n10\n",            # row too long
        "2\n0\n10\n",              # row too short
        "2\n0x\n10\n",             # bad character
        "2\n01\n11\n",             # self-loop on diagonal
        "-1\n",                    # bad header value
        "x\n01\n10\n",             # non-numeric header
        "2\n01\n10",               # missing final newline
        "2\r\n01\r\n10\r\n",       # CR line endings are not format clean
    ])
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(DigraphFormatError):
            read_digraph(text)

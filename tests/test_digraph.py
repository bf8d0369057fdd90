"""Dense digraph container, vertex sets, and the text format."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisplit import (
    Digraph,
    DigraphFormatError,
    DimensionError,
    VertexSet,
    punctured_tournament,
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


def _punctured_four_with(two_way):
    """punctured_tournament(4) with its first arc reversed, or made
    two-way: a tournament, then a digraph that is not one."""
    d = punctured_tournament(4)
    u, v = min(arcs_of(d))
    rows = list(d.rows)
    rows[v] |= 1 << u
    if not two_way:
        rows[u] ^= 1 << v
    return Digraph(d.n, rows)


def subsets_of(n):
    return st.integers(min_value=0, max_value=(1 << n) - 1).map(
        lambda bits: VertexSet(bits, n))


class TestVertexSet:
    def test_from_ids_roundtrip(self):
        vs = VertexSet.from_ids([4, 0, 2], 6)
        assert vs.ids() == (0, 2, 4)
        assert len(vs) == 3
        assert 2 in vs and 1 not in vs
        assert -1 not in vs and 6 not in vs
        assert list(vs) == [0, 2, 4]
        assert repr(VertexSet.from_ids([0, 2], 3)) == "VertexSet({0,2}, n=3)"

    def test_out_of_range_bits(self):
        with pytest.raises(ValueError):
            VertexSet(1 << 5, 5)
        with pytest.raises(ValueError):
            VertexSet(-1, 3)
        with pytest.raises(ValueError):
            VertexSet.from_ids([3], 3)
        # a bare ValueError would pass unguarded: a negative shift raises too
        with pytest.raises(ValueError, match=r"^negative vertex count -1$"):
            VertexSet(0, -1)

    def test_first_out_of_range_id_is_named(self):
        with pytest.raises(ValueError, match=r"^vertex 7 out of range for n=5$"):
            VertexSet.from_ids([1, 7, -1, 9], 5)
        with pytest.raises(ValueError, match=r"^vertex -1 out of range for n=5$"):
            VertexSet.from_ids([1, -1, 7], 5)

    @given(st.integers(min_value=0, max_value=200).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))))
    def test_ids_match_the_bits(self, n_bits):
        n, bits = n_bits
        vs = VertexSet(bits, n)
        assert vs.ids() == tuple(v for v in range(n) if bits >> v & 1)
        assert list(vs) == list(vs.ids())
        assert VertexSet.from_ids(reversed(vs.ids()), n) == vs

    def test_duplicate_ids_collapse(self):
        assert VertexSet.from_ids([1, 1, 1], 4) == VertexSet.from_ids([1], 4)


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
        assert d.rows == (0b010, 0b100, 0b001)
        assert arcs_of(d) == {(0, 1), (1, 2), (2, 0)}
        assert d.arc_count() == 3
        assert d.is_tournament()
        assert repr(ternary_tournament(1)) == "Digraph(n=3, arcs=3)"

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

    def test_min_out_degree_empty_and_full(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert d.min_out_degree() == 1
        assert d.min_out_degree(VertexSet(0, 3)) == 0
        assert Digraph(0, []).min_out_degree() == 0

    def test_min_out_degree_rejects_foreign_subset(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        with pytest.raises(DimensionError):
            d.min_out_degree(VertexSet.from_ids([0], 4))

    @settings(max_examples=150)
    @given(digraphs(10).flatmap(
        lambda d: st.tuples(st.just(d), subsets_of(d.n))))
    def test_min_out_degree_matches_naive(self, d_vs):
        d, vs = d_vs
        assert d.min_out_degree(vs) == naive_min_out_degree(arcs_of(d), set(vs.ids()))

    @settings(max_examples=100)
    @given(digraphs(8))
    @example(Digraph(0, []))
    @example(Digraph(1, [0]))
    @example(_punctured_four_with(False))
    @example(_punctured_four_with(True))
    def test_is_tournament_matches_naive(self, d):
        assert d.is_tournament() == naive_is_tournament(arcs_of(d), d.n)

    def test_delete_vertex(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        sub = d.delete_vertex(1)
        assert sub.n == 2
        # survivors 0, 2 relabel to 0, 1; only arc was 2 -> 0
        assert arcs_of(sub) == {(1, 0)}
        with pytest.raises(ValueError):
            d.delete_vertex(3)

    @settings(max_examples=50)
    @given(digraphs(10))
    def test_delete_vertex_matches_induced(self, d):
        arcs = arcs_of(d)
        for v in range(d.n):
            sub = d.delete_vertex(v)
            assert sub.n == d.n - 1
            assert arcs_of(sub) == naive_induced_arcs(arcs, set(range(d.n)) - {v})

    def test_delete_vertex_matches_induced_level_three(self):
        d = ternary_tournament(3)
        arcs = arcs_of(d)
        for v in range(d.n):
            rest = set(range(d.n)) - {v}
            assert arcs_of(d.delete_vertex(v)) == naive_induced_arcs(arcs, rest)

    @settings(max_examples=75)
    @given(digraphs(10))
    def test_degree_arrays_match_loops(self, d):
        out, inn = d.degree_arrays()
        arcs = arcs_of(d)
        assert out.tolist() == [sum((v, u) in arcs for u in range(d.n)) for v in range(d.n)]
        assert inn.tolist() == [sum((u, v) in arcs for u in range(d.n)) for v in range(d.n)]


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

    @pytest.mark.parametrize("text, message", [
        # the first offending row decides, whatever its fault
        ("3\n0x1\n0010\n100\n", "row 0 contains characters other than 0/1"),
        ("3\n0110\n0x1\n100\n", "row 0 has length 4, expected 3"),
        ("3\n110\n001\n10\n", "self-loop bit set at vertex 0"),
        ("3\n010\n011\n1\n", "self-loop bit set at vertex 1"),
        ("3\n01x\n011\n100\n", "row 0 contains characters other than 0/1"),
        ("2\n01\n11\n", "self-loop bit set at vertex 1"),
        # a non-ASCII character counts as one character of its row
        ("3\n010\n0\u00e91\n100\n", "row 1 contains characters other than 0/1"),
        ("3\n010\n0\u00b91\n100\n", "row 1 contains characters other than 0/1"),
        ("3\n010\n001\n1\u00e90\n", "row 2 contains characters other than 0/1"),
        ("2\n\u0661\u0660\n10\n", "row 0 contains characters other than 0/1"),
        ("3\n010\n001\n10\n", "row 2 has length 2, expected 3"),
        ("2\n01\n1\n", "row 1 has length 1, expected 2"),
        ("2\r\n01\r\n10\r\n", "row 0 has length 3, expected 2"),
        ("2\n01\n10", "missing final newline"),
        ("2\n01\n10\n\n", "expected 2 rows, got 3"),
        ("2\n01\n", "expected 2 rows, got 1"),
        ("x\n01\n10\n", "malformed vertex count 'x'"),
    ])
    def test_malformed_input_messages(self, text, message):
        with pytest.raises(DigraphFormatError) as exc:
            read_digraph(text)
        assert str(exc.value) == message

    def test_header_whitespace_tolerated(self):
        assert read_digraph(" 2 \n01\n10\n") == Digraph.from_arcs(2, [(0, 1), (1, 0)])

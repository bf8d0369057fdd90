"""Dense digraph container, vertex sets, and the text format."""

import io
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trisplit import (
    Digraph,
    DigraphFormatError,
    DimensionError,
    SplitMix64,
    VertexSet,
    punctured_tournament,
    read_digraph,
    ternary_tournament,
    write_digraph,
)

from naive import (
    arcs_of,
    naive_induced_arcs,
    naive_is_tournament,
    naive_min_out_degree,
    naive_read_fault,
    random_digraph,
)


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
        # an id past 20 digits is named by its digit count
        with pytest.raises(ValueError, match=r"^vertex <4000-digit number> out of range for n=5$"):
            VertexSet.from_ids([1, 10 ** 3999], 5)
        with pytest.raises(ValueError, match=r"^vertex <negative 21-digit number> out of range"):
            VertexSet.from_ids([-10 ** 20], 5)

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

    @settings(max_examples=100)
    @given(digraphs(8), st.integers(min_value=1, max_value=3))
    @example(_punctured_four_with(False), 2)
    @example(_punctured_four_with(True), 2)
    def test_blocked_passes_match_naive_at_tiny_blocks(self, d, rows):
        # blocks of 1-3 rows: the column blocks of is_tournament and the
        # summed in-degrees span several blocks
        arcs = arcs_of(d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("trisplit.digraph._BLOCK_CELLS", rows * max(d.n, 1))
            assert d.is_tournament() == naive_is_tournament(arcs, d.n)
            out, inn = d.degree_arrays()
        assert out.tolist() == [sum((v, u) in arcs for u in range(d.n)) for v in range(d.n)]
        assert inn.tolist() == [sum((u, v) in arcs for u in range(d.n)) for v in range(d.n)]

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


#: Malformed texts, each with the one error message it must raise
MALFORMED = [
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
    # digits outside ASCII: int() refuses a superscript and reads U+0663 as 3
    ("\u00b2\n", "malformed vertex count '\u00b2'"),
    ("\u0663\n010\n001\n100\n", "malformed vertex count '\u0663'"),
    # faults past the first block at TestTextBlocks' sizes: in blocks of two
    # rows, rows 0-1, 2-3 and 4 share a block
    ("5\n01000\n00100\n00010\n00001\n1000x\n", "row 4 contains characters other than 0/1"),
    ("5\n01000\n00100\n00110\n00001\n10000\n", "self-loop bit set at vertex 2"),
    ("5\n01000\n00100\n00010\n0001\n100000\n", "row 3 has length 4, expected 5"),
    ("5\n01000\n00100\n00010\n0000100001\n\n", "row 3 has length 10, expected 5"),
    # a long row runs past the end of its block
    ("5\n01000\n0010000010\n00001\n10000\n\n", "row 1 has length 10, expected 5"),
    # an earlier row's fault wins over a later row's, in any block
    ("5\n01000\n00100\n0x010\n0001\n100000\n", "row 2 contains characters other than 0/1"),
    ("5\n01000\n00100\n00010\n00011\n1000\n", "self-loop bit set at vertex 3"),
    # a non-ASCII character in the last row of a block, and at its end
    ("5\n01000\n00100\n00010\n0\u00e9001\n10000\n", "row 3 contains characters other than 0/1"),
    ("5\n01000\n0010\u00e9\n00010\n00001\n10000\n", "row 1 contains characters other than 0/1"),
    ("5\n01000\n00100\n00010\n00001\n1000\u00e9\n", "row 4 contains characters other than 0/1"),
]


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

    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_malformed_input_messages(self, text, message):
        with pytest.raises(DigraphFormatError) as exc:
            read_digraph(text)
        assert str(exc.value) == message

    def test_header_whitespace_tolerated(self):
        assert read_digraph(" 2 \n01\n10\n") == Digraph.from_arcs(2, [(0, 1), (1, 0)])


def _patch_block(monkeypatch, text, rows):
    """Make the text block ``rows`` rows of the digraph that ``text`` declares."""
    header = text.partition("\n")[0].strip()
    n = int(header) if header.isascii() and header.isdigit() else 0
    monkeypatch.setattr("trisplit.digraph._BLOCK_CELLS", rows * max(n, 1))


class TestTextBlocks:
    """The text is read and written a block of rows at a time; no block
    size may change a result or an error."""

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_messages_at_tiny_blocks(self, monkeypatch, rows, text, message):
        _patch_block(monkeypatch, text, rows)
        with pytest.raises(DigraphFormatError) as exc:
            read_digraph(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_roundtrip_at_tiny_blocks(self, monkeypatch, rows, n):
        d = Digraph.from_arcs(n, random_digraph(SplitMix64(n), n))
        text = write_digraph(d)
        monkeypatch.setattr("trisplit.digraph._BLOCK_CELLS", rows * max(n, 1))
        assert write_digraph(d) == text
        sink = io.StringIO()
        assert write_digraph(d, sink) is None
        assert sink.getvalue() == text
        assert read_digraph(text) == d


#: Kinds of one-character or one-row edit that ``_mutate`` makes
MUTATIONS = ["x", "\u00e9", "loop", "insert", "delete", "cr", "drop", "add"]


def _mutate(text, kind, at):
    """``text`` with one edit of ``kind``, at the place ``at`` names
    modulo the places that kind fits; None when none fits.

    "x" and "\u00e9" replace any character, "loop" sets a diagonal
    character, "insert" and "delete" lengthen and shorten a row, "cr"
    puts a carriage return before a newline, "drop" removes a row and
    "add" repeats one.
    """
    if kind in ("x", "\u00e9"):
        at %= len(text)
        return text[:at] + kind + text[at + 1:]
    if kind == "cr":
        at = [j for j, c in enumerate(text) if c == "\n"][at % text.count("\n")]
        return text[:at] + "\r" + text[at:]
    header, *rows = text.split("\n")[:-1]
    n = len(rows)
    if kind == "add":
        rows.insert(at % (n + 1), rows[at % n] if n else "")
    elif not n:
        return None
    elif kind == "drop":
        del rows[at % n]
    else:
        u, j = at % n, at // n % n
        row = rows[u]
        rows[u] = {"loop": row[:u] + "1" + row[u + 1:],
                   "insert": row[:j] + "0" + row[j:],
                   "delete": row[:j] + row[j + 1:]}[kind]
    return "\n".join([header, *rows]) + "\n"


class TestTextFaults:
    """One edit of a valid text raises exactly the message of
    ``naive_read_fault``, an oracle that shares no code with the reader,
    at any block size; an edit it finds valid reads the same digraph."""

    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_oracle_names_every_malformed_message(self, text, message):
        assert naive_read_fault(text) == message

    @pytest.mark.parametrize("text, message", [
        ("x" * 20 + "\n", "malformed vertex count 'xxxxxxxxxxxxxxxxxxxx'"),
        ("x" * 100_000 + "\n",
         "malformed vertex count 'xxxxxxxxxxxxxxxxxxxx'... (100000 characters)"),
        (" 12x" + "\u00e9" * 30 + " \n0\n",
         "malformed vertex count '12x\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9"
         "\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9'... (33 characters)"),
        ("9" * 20 + "\n", "expected 99999999999999999999 rows, got 0"),
        ("1" + "0" * 24 + "\n0\n", "expected <25-digit number> rows, got 1"),
    ], ids=["header-20", "header-100000", "header-blanks", "count-20", "count-25"])
    def test_long_header_is_named_by_its_length(self, text, message):
        # a header past 20 characters, or a count past 20 digits, is not echoed whole
        with pytest.raises(DigraphFormatError) as exc:
            read_digraph(text)
        assert str(exc.value) == message == naive_read_fault(text)

    @settings(max_examples=50)
    @given(digraphs(8))
    def test_oracle_passes_written_text(self, d):
        assert naive_read_fault(write_digraph(d)) is None

    @pytest.mark.parametrize("rows", [1, 2, None])
    @settings(max_examples=300)
    @given(d=digraphs(6), kind=st.sampled_from(MUTATIONS), at=st.integers(0, 1 << 16))
    def test_reader_matches_the_oracle(self, rows, d, kind, at):
        text = _mutate(write_digraph(d), kind, at)
        assume(text is not None)
        expected = naive_read_fault(text)
        with pytest.MonkeyPatch.context() as mp:
            if rows:
                mp.setattr("trisplit.digraph._BLOCK_CELLS", rows * max(d.n, 1))
            if expected is None:
                assert read_digraph(text) == d
            else:
                with pytest.raises(DigraphFormatError) as exc:
                    read_digraph(text)
                assert str(exc.value) == expected


class _Discard:
    """A text sink that keeps only a count of what it was sent."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def _traced_peak(fn, *args):
    """(fn(*args), peak bytes that tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTextMemory:
    """At family scale the text paths hold one block of rows at a time,
    not several copies of the text (4.8 MB at level 7)."""

    @pytest.fixture(scope="class")
    def level_seven(self):
        d = punctured_tournament(7)
        return d, write_digraph(d)

    def test_read_peak_below_twice_the_text(self, level_seven):
        d, text = level_seven
        parsed, peak = _traced_peak(read_digraph, text)
        assert parsed == d
        assert peak < 2 * len(text)

    def test_streamed_write_peak_below_the_text(self, level_seven):
        d, text = level_seven
        sink = _Discard()
        _, peak = _traced_peak(write_digraph, d, sink)
        assert sink.chars == len(text)
        assert peak < len(text)


class TestMatrixMemory:
    """At level 7 the whole-matrix passes hold one block of rows at a
    time, below half the unpacked 2186 x 2186 matrix (4.8 MB)."""

    @pytest.fixture(scope="class")
    def level_seven(self):
        return punctured_tournament(7)

    def test_is_tournament_peak(self, level_seven):
        result, peak = _traced_peak(level_seven.is_tournament)
        assert result is True
        assert peak < level_seven.n ** 2 // 2

    def test_degree_arrays_peak(self, level_seven):
        d = level_seven
        (out, inn), peak = _traced_peak(d.degree_arrays)
        assert out.tolist() == [row.bit_count() for row in d.rows]
        # a tournament: each vertex meets the other 2185 once
        assert (out + inn).tolist() == [d.n - 1] * d.n
        assert peak < d.n ** 2 // 2

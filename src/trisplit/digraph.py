"""Dense bit-matrix digraphs and bitset vertex subsets.

A digraph on n vertices is stored as n Python integers, one per vertex;
bit v of row u is set iff the arc u->v exists.  Python integers give
arbitrary-width rows, so out-degree queries over a vertex subset reduce
to a single AND plus popcount, which is the hot operation of every
search in this package.

Digraph and VertexSet are frozen dataclasses: all queries are pure and
safe under concurrent shared reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

#: Cells of an n-wide 0/1 matrix that one pass over it holds at once:
#: reading and writing digraph text and scoring splits all work in
#: blocks of ``_rows_per_block(n)`` whole rows, 239 at level 7.
_BLOCK_CELLS = 1 << 19
#: Most characters of outside text, and most decimal digits of an
#: integer, that a message quotes whole; past it a message gives the
#: length instead, so a refusal's line stays short.
_QUOTE_LIMIT = 20


def _rows_per_block(n: int) -> int:
    """Whole rows of an n-wide matrix in one block of about
    ``_BLOCK_CELLS`` cells; one row when a row alone is longer."""
    return max(1, _BLOCK_CELLS // max(n, 1))


def _quote(text: str) -> str:
    """``repr(text)``, or past ``_QUOTE_LIMIT`` characters the repr of
    that many and the text's length."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


def _decimal(value: int) -> str:
    """``value`` in decimal, or past ``_QUOTE_LIMIT`` digits its digit
    count, found without the int-to-str conversion that refuses long
    integers."""
    size = abs(value)
    if size < 10 ** _QUOTE_LIMIT:
        return str(value)
    # the estimate from the bit length is the digit count or one more
    digits = int(size.bit_length() * math.log10(2)) + 1
    digits -= size < 10 ** (digits - 1)
    return f"<{'negative ' if value < 0 else ''}{digits}-digit number>"


def _unpack_rows(rows: Iterable[int], n: int) -> np.ndarray:
    """Bits 0..n-1 of each int in ``rows`` as one uint8 0/1 row each.

    Every int must lie in 0..2**n - 1.
    """
    rows = list(rows)
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in rows),
                           dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Inverse of :func:`_unpack_rows`: one int per row of a 0/1 matrix."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


class DimensionError(ValueError):
    """A VertexSet was used with a digraph of a different vertex count."""


class DigraphFormatError(ValueError):
    """Text input does not conform to the digraph exchange format."""


@dataclass(frozen=True)
class VertexSet:
    """Subset of the vertices 0..owner_n-1, stored as a bitmask.

    ``bits`` has bit v set iff vertex v is in the set; every set bit is
    below ``owner_n``.
    """

    bits: int
    owner_n: int

    def __post_init__(self) -> None:
        if self.owner_n < 0:
            raise ValueError(f"negative vertex count {self.owner_n}")
        if self.bits < 0 or self.bits >> self.owner_n:
            raise ValueError(f"bitset has bits outside 0..{self.owner_n - 1}")

    @classmethod
    def from_ids(cls, ids: Iterable[int], owner_n: int) -> "VertexSet":
        ids = list(ids)
        if not ids:
            return cls(0, owner_n)
        if not (0 <= min(ids) and max(ids) < owner_n):
            v = next(v for v in ids if not 0 <= v < owner_n)
            raise ValueError(f"vertex {_decimal(v)} out of range for n={owner_n}")
        member = np.zeros(owner_n, dtype=np.uint8)
        member[np.asarray(ids, dtype=np.intp)] = 1
        return cls(_pack_rows(member[None])[0], owner_n)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids())

    def ids(self) -> tuple[int, ...]:
        """Member vertices in increasing order."""
        return tuple(np.flatnonzero(_unpack_rows((self.bits,), self.owner_n)[0]).tolist())

    def __repr__(self) -> str:
        return f"VertexSet({{{','.join(map(str, self))}}}, n={self.owner_n})"


def subset_min_degree(rows: tuple[int, ...], bits: int) -> int:
    """min over members v of ``bits`` of |rows[v] & bits|; 0 when empty."""
    best = len(rows) if bits else 0
    rest = bits
    while rest:
        low = rest & -rest
        d = (rows[low.bit_length() - 1] & bits).bit_count()
        if d < best:
            best = d
            if best == 0:
                break
        rest ^= low
    return best


@dataclass(frozen=True, slots=True, repr=False)
class Digraph:
    """Immutable loop-free digraph with one bitmask row per vertex."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n, rows = self.n, tuple(self.rows)  # rows may be any iterable of ints
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        for u, row in enumerate(rows):
            if row < 0 or row >> n:
                raise ValueError(f"row {u} has bits outside 0..{n - 1}")
            if (row >> u) & 1:
                raise ValueError(f"self-loop at vertex {u}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        rows = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
        return cls(n, rows)

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arc_count()})"

    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def min_out_degree(self, subset: VertexSet | None = None) -> int:
        """Minimum out-degree of the subdigraph induced by ``subset``
        (by all vertices when ``subset`` is None).

        Defined as 0 for the empty subset.  Degrees are computed in
        place against the full adjacency rows; no induced copy is made.
        """
        if subset is None:
            return subset_min_degree(self.rows, (1 << self.n) - 1)
        if subset.owner_n != self.n:
            raise DimensionError(
                f"vertex set indexes {subset.owner_n} vertices, digraph has {self.n}"
            )
        return subset_min_degree(self.rows, subset.bits)

    def delete_vertex(self, v: int) -> "Digraph":
        """Digraph with v removed and the remaining vertices relabeled.

        Each row is rebuilt with two shifts.
        """
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        below = (1 << v) - 1
        rows = [((row >> (v + 1)) << v) | (row & below)
                for u, row in enumerate(self.rows) if u != v]
        return Digraph(self.n - 1, rows)

    def is_tournament(self) -> bool:
        """True iff every vertex pair carries exactly one arc.

        Checked one block of ``_rows_per_block(n)`` rows u at a time,
        against every vertex v >= the block's first: A[u, v] + A[v, u]
        must be 1, and is 0 at u = v, which gets 1 added.  The last
        block, a single one included, is its own block of columns, so
        it needs no second unpack.
        """
        n = self.n
        step = _rows_per_block(n)
        for lo in range(0, n, step):
            block = _unpack_rows(self.rows[lo:lo + step], n)[:, lo:]
            b = len(block)
            into = block if lo + b == n else _unpack_rows(
                [(row >> lo) & ((1 << b) - 1) for row in self.rows[lo:]], b)
            block = block + into.T
            block.reshape(-1)[::n - lo + 1] += 1
            if not (block == 1).all():
                return False
        return True

    def degree_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(out_degrees, in_degrees) of all vertices as int64 arrays,
        summed one block of ``_rows_per_block(n)`` rows at a time."""
        n = self.n
        out = np.empty(n, dtype=np.int64)
        into = np.zeros(n, dtype=np.int64)
        step = _rows_per_block(n)
        for lo in range(0, n, step):
            block = _unpack_rows(self.rows[lo:lo + step], n)
            block.sum(axis=1, dtype=np.int64, out=out[lo:lo + step])
            into += block.sum(axis=0, dtype=np.int64)
        return out, into


def read_digraph(text: str) -> Digraph:
    """Parse the text exchange format.

    Line 1 is the vertex count n, followed by n lines of exactly n
    characters from {0,1}; character j of line i is 1 iff arc i->j.
    The diagonal must be 0 and a final newline is required.

    Rows are checked in one pass per block of ``_rows_per_block(n)``
    rows, sliced from ``text`` by offset, and packed; only a block
    that fails is walked row by row, so the first offending row
    decides the error, whichever block it lies in.  Rows are counted,
    for the ``expected N rows`` error that precedes every row error,
    only when a block fails or the text's length is not n + 1
    characters per row; passing blocks that end the text already prove
    n rows.  Beyond the text and the packed rows the parse holds a few
    block-sized buffers.
    """
    if not text.endswith("\n"):
        raise DigraphFormatError("missing final newline")
    head_end = text.index("\n")
    header = text[:head_end].strip()
    if not (header.isascii() and header.isdigit()):
        raise DigraphFormatError(f"malformed vertex count {_quote(header)}")
    try:
        n = int(header)
    except ValueError:  # past Python's int-to-str digit limit
        raise DigraphFormatError(
            f"malformed vertex count: {len(header)} digits, too many to read") from None
    first = start = head_end + 1

    def check_row_count() -> None:
        got = text.count("\n", first)
        if got != n:
            raise DigraphFormatError(f"expected {_decimal(n)} rows, got {got}")

    if len(text) != first + n * (n + 1):
        check_row_count()
    step = _rows_per_block(n)
    rows: list[int] = []
    for lo in range(0, n, step):
        count = min(step, n - lo)
        size = count * (n + 1)
        # one byte per character: "replace" turns each non-ASCII one into "?"
        data = np.frombuffer(text[start:start + size].encode("ascii", "replace"), dtype=np.uint8)
        grid = data.reshape(count, n + 1) if len(data) == size else None
        i = np.arange(count)
        if (grid is None or not (grid[:, n] == ord("\n")).all()
                or not ((grid[:, :n] | 1) == ord("1")).all()
                or (grid[i, lo + i] == ord("1")).any()):
            check_row_count()
            # every row ends in a newline, and a faulty one may run past this block
            for u in range(lo, lo + count):
                end = text.index("\n", start)
                row, start = text[start:end], end + 1
                if len(row) != n:
                    raise DigraphFormatError(f"row {u} has length {len(row)}, expected {n}")
                if row.strip("01"):
                    raise DigraphFormatError(f"row {u} contains characters other than 0/1")
                if row[u] == "1":
                    raise DigraphFormatError(f"self-loop bit set at vertex {u}")
        # character j of a line is bit j of its row
        rows += _pack_rows(grid[:, :n] == ord("1"))
        start += size
    return Digraph(n, rows)


def write_digraph(digraph: Digraph, out: TextIO | None = None) -> str | None:
    """Render a digraph in the text exchange format (inverse of read).

    The text is rendered one block of ``_rows_per_block(n)`` rows at a
    time, and each block goes to ``out.write`` as soon as it is
    rendered, so a streamed write holds one block beyond the digraph.
    With ``out`` None the blocks are joined and the text is returned.
    """
    n = digraph.n
    blocks: list[str] = []
    sink = blocks.append if out is None else out.write
    sink(f"{n}\n")
    step = _rows_per_block(n)
    for lo in range(0, n, step):
        rows = digraph.rows[lo:lo + step]
        block = np.full((len(rows), n + 1), ord("\n"), dtype=np.uint8)
        np.add(_unpack_rows(rows, n), ord("0"), out=block[:, :n])
        sink(block.tobytes().decode("ascii"))
    return "".join(blocks) if out is None else None

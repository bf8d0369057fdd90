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

from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

#: Cells of an n-wide 0/1 matrix that one pass over it holds at once:
#: reading and writing digraph text and scoring splits all work in
#: blocks of ``_rows_per_block(n)`` whole rows, 239 at level 7.
_BLOCK_CELLS = 1 << 19


def _rows_per_block(n: int) -> int:
    """Whole rows of an n-wide matrix in one block of about
    ``_BLOCK_CELLS`` cells; one row when a row alone is longer."""
    return max(1, _BLOCK_CELLS // max(n, 1))


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
            raise ValueError(f"vertex {v} out of range for n={owner_n}")
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

    def _check_set(self, subset: VertexSet) -> None:
        if subset.owner_n != self.n:
            raise DimensionError(
                f"vertex set indexes {subset.owner_n} vertices, digraph has {self.n}"
            )

    def min_out_degree(self, subset: VertexSet | None = None) -> int:
        """Minimum out-degree of the subdigraph induced by ``subset``
        (by all vertices when ``subset`` is None).

        Defined as 0 for the empty subset.  Degrees are computed in
        place against the full adjacency rows; no induced copy is made.
        """
        if subset is None:
            return subset_min_degree(self.rows, (1 << self.n) - 1)
        self._check_set(subset)
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
        """True iff every vertex pair carries exactly one arc."""
        adjacency = _unpack_rows(self.rows, self.n)
        return np.array_equal(adjacency + adjacency.T,
                              1 - np.eye(self.n, dtype=np.uint8))

    def degree_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(out_degrees, in_degrees) of all vertices as int64 arrays."""
        adjacency = _unpack_rows(self.rows, self.n)
        return adjacency.sum(axis=1, dtype=np.int64), adjacency.sum(axis=0, dtype=np.int64)


def read_digraph(text: str) -> Digraph:
    """Parse the text exchange format.

    Line 1 is the vertex count n, followed by n lines of exactly n
    characters from {0,1}; character j of line i is 1 iff arc i->j.
    The diagonal must be 0 and a final newline is required.

    Rows are checked and packed one block of ``_rows_per_block(n)``
    rows at a time, sliced from ``text`` by offset, so beyond the text
    and the packed rows the parse holds a few block-sized buffers.
    The first offending row decides the error, whichever block it lies
    in.
    """
    if not text.endswith("\n"):
        raise DigraphFormatError("missing final newline")
    head_end = text.index("\n")
    header = text[:head_end].strip()
    if not (header.isascii() and header.isdigit()):
        raise DigraphFormatError(f"malformed vertex count {header!r}")
    n = int(header)
    start = head_end + 1
    got = text.count("\n", start)
    if got != n:
        raise DigraphFormatError(f"expected {n} rows, got {got}")
    step = _rows_per_block(n)
    rows: list[int] = []
    for lo in range(0, n, step):
        count = min(step, n - lo)
        # one byte per character: "replace" turns each non-ASCII one into "?"
        data = np.frombuffer(text[start:start + count * (n + 1)].encode("ascii", "replace"),
                             dtype=np.uint8)
        lengths = np.diff(np.flatnonzero(data == ord("\n")), prepend=-1)[:count] - 1
        wrong = np.flatnonzero(lengths != n)
        # rows before the first one of the wrong length form a grid
        shaped = int(wrong[0]) if len(wrong) else len(lengths)
        grid = data[:shaped * (n + 1)].reshape(shaped, n + 1)[:, :n]
        bad_chars = ((grid | 1) != ord("1")).any(axis=1)
        loops = grid[np.arange(shaped), lo + np.arange(shaped)] == ord("1")
        bad = np.flatnonzero(bad_chars | loops)
        if len(bad):
            i = int(bad[0])
            if bad_chars[i]:
                raise DigraphFormatError(f"row {lo + i} contains characters other than 0/1")
            raise DigraphFormatError(f"self-loop bit set at vertex {lo + i}")
        if shaped < count:
            # the row may run past this block; every row ends in a newline
            row_start = start + shaped * (n + 1)
            length = text.index("\n", row_start) - row_start
            raise DigraphFormatError(f"row {lo + shaped} has length {length}, expected {n}")
        # character j of a line is bit j of its row
        rows += _pack_rows(grid == ord("1"))
        start += count * (n + 1)
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

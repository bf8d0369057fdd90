"""Dense bit-matrix digraphs and bitset vertex subsets.

A digraph on n vertices is stored as n Python integers, one per vertex;
bit v of row u is set iff the arc u->v exists.  Python integers give
arbitrary-width rows, so out-degree queries over a vertex subset reduce
to a single AND plus popcount, which is the hot operation of every
search in this package.

Digraph and VertexSet are immutable after construction: all queries are
pure and safe under concurrent shared reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


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
        bits = 0
        for v in ids:
            if not 0 <= v < owner_n:
                raise ValueError(f"vertex {v} out of range for n={owner_n}")
            bits |= 1 << v
        return cls(bits, owner_n)

    @classmethod
    def empty(cls, owner_n: int) -> "VertexSet":
        return cls(0, owner_n)

    @classmethod
    def full(cls, owner_n: int) -> "VertexSet":
        return cls((1 << owner_n) - 1, owner_n)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.owner_n and (self.bits >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def ids(self) -> tuple[int, ...]:
        """Member vertices in increasing order."""
        return tuple(self)

    def complement(self) -> "VertexSet":
        return VertexSet(((1 << self.owner_n) - 1) ^ self.bits, self.owner_n)

    def __repr__(self) -> str:
        return f"VertexSet({{{','.join(map(str, self))}}}, n={self.owner_n})"


class Digraph:
    """Immutable loop-free digraph with one bitmask row per vertex."""

    __slots__ = ("n", "rows")

    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: Iterable[int]):
        rows = tuple(rows)
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        for u, row in enumerate(rows):
            if row < 0 or row >> n:
                raise ValueError(f"row {u} has bits outside 0..{n - 1}")
            if (row >> u) & 1:
                raise ValueError(f"self-loop at vertex {u}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Digraph is immutable")

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        rows = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
        return cls(n, rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Digraph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arc_count()})"

    def arc(self, u: int, v: int) -> bool:
        return (self.rows[u] >> v) & 1 == 1

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u, row in enumerate(self.rows):
            while row:
                low = row & -row
                yield u, low.bit_length() - 1
                row ^= low

    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def full_set(self) -> VertexSet:
        return VertexSet.full(self.n)

    def _check_set(self, subset: VertexSet) -> None:
        if subset.owner_n != self.n:
            raise DimensionError(
                f"vertex set indexes {subset.owner_n} vertices, digraph has {self.n}"
            )

    def out_degree(self, v: int) -> int:
        """Out-degree of v in the whole digraph."""
        return self.rows[v].bit_count()

    def out_degree_in(self, subset: VertexSet, v: int) -> int:
        """Out-degree of v counting only arcs into ``subset``.

        v must itself belong to the subset.
        """
        self._check_set(subset)
        if v not in subset:
            raise ValueError(f"vertex {v} is not in the subset")
        return (self.rows[v] & subset.bits).bit_count()

    def min_out_degree(self, subset: VertexSet | None = None) -> int:
        """Minimum out-degree of the subdigraph induced by ``subset``.

        Defined as 0 for the empty subset.  Degrees are computed in
        place against the full adjacency rows; no induced copy is made.
        """
        if subset is None:
            subset = self.full_set()
        self._check_set(subset)
        bits = subset.bits
        if bits == 0:
            return 0
        best = self.n
        rows = self.rows
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

    def induced(self, subset: VertexSet) -> "Digraph":
        """Subdigraph induced by ``subset``, relabeled by increasing id."""
        self._check_set(subset)
        kept = subset.ids()
        pos = {v: i for i, v in enumerate(kept)}
        rows = []
        for v in kept:
            row = self.rows[v] & subset.bits
            new = 0
            while row:
                low = row & -row
                new |= 1 << pos[low.bit_length() - 1]
                row ^= low
            rows.append(new)
        return Digraph(len(kept), rows)

    def delete_vertex(self, v: int) -> "Digraph":
        """Digraph with v removed and the remaining vertices relabeled.

        Same result as inducing on every other vertex, but each row
        is rebuilt with two shifts instead of bit by bit.
        """
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        below = (1 << v) - 1
        rows = [((row >> (v + 1)) << v) | (row & below)
                for u, row in enumerate(self.rows) if u != v]
        return Digraph(self.n - 1, rows)

    def is_tournament(self) -> bool:
        """True iff every vertex pair carries exactly one arc."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if ((self.rows[u] >> v) & 1) == ((self.rows[v] >> u) & 1):
                    return False
        return True

    def degree_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(out_degrees, in_degrees) of all vertices as int64 arrays."""
        # bit j of byte b in row u is arc u -> 8*b+j
        width = max(1, (self.n + 7) // 8)
        buf = b"".join(row.to_bytes(width, "little") for row in self.rows)
        packed = np.frombuffer(buf, dtype=np.uint8).reshape(self.n, width)
        out = np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
        unpacked = np.unpackbits(packed, axis=1, bitorder="little", count=self.n)
        inn = unpacked.sum(axis=0, dtype=np.int64)
        return out, inn


def read_digraph(text: str) -> Digraph:
    """Parse the text exchange format.

    Line 1 is the vertex count n, followed by n lines of exactly n
    characters from {0,1}; character j of line i is 1 iff arc i->j.
    The diagonal must be 0 and a final newline is required.
    """
    if not text.endswith("\n"):
        raise DigraphFormatError("missing final newline")
    lines = text.split("\n")[:-1]
    if not lines:
        raise DigraphFormatError("empty input")
    header = lines[0].strip()
    if not header.isdigit():
        raise DigraphFormatError(f"malformed vertex count {header!r}")
    n = int(header)
    if len(lines) != n + 1:
        raise DigraphFormatError(f"expected {n} rows, got {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:]):
        if len(line) != n:
            raise DigraphFormatError(f"row {i} has length {len(line)}, expected {n}")
        if line.strip("01"):
            raise DigraphFormatError(f"row {i} contains characters other than 0/1")
        if line[i] == "1":
            raise DigraphFormatError(f"self-loop bit set at vertex {i}")
        # character j of the line is bit j of the row
        rows.append(int(line[::-1], 2))
    return Digraph(n, rows)


def write_digraph(digraph: Digraph) -> str:
    """Render a digraph in the text exchange format (inverse of read)."""
    out = [str(digraph.n)]
    for row in digraph.rows:
        out.append(format(row, f"0{digraph.n}b")[::-1])
    return "\n".join(out) + "\n"

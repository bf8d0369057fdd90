"""Recursive ternary tournament family and its exact parameters.

Level 0 is the one-vertex tournament.  Level k+1 glues three disjoint
copies of level k cyclically: with the copies on consecutive id blocks
A, B, C, every arc A->B, B->C and C->A is added (`_copies`, the one
statement of this gluing rule).  The result is a regular tournament on
3**k vertices whose every vertex has out-degree (3**k - 1) // 2.

Vertex ids double as base-3 labels: the most significant trit of a
vertex names its copy (0 -> A, 1 -> B, 2 -> C), recursively.  That
makes the arc relation a closed form over trit strings (`trit_arc`),
which must agree bit-for-bit with the recursive builder.

Deleting vertex 0 from level k yields the 2n-vertex counterexample
tournament with minimum out-degree n-1, where n = (3**k - 1) // 2
(`_punctured_rows`, the one statement of this puncture).

Levels are dense bitset matrices, so the family has one limit, level
``MAX_LEVEL`` (3**MAX_LEVEL vertices), and one rule: every function
that takes a level-k vertex, subset or tournament refuses through
`check_level`, which applies the limit without building anything and
gives the order 3**k of an accepted level.  `level_params` and
`gap_table` only evaluate closed forms and take any level >= 0
(`gap_table` up to 9000).  Digraphs read from text have no limit.

`gap_table` lists the closed-form parameters of levels 1..k_max with
their exact gap s/2 - bound, which telescopes to (k - 1)/2.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .digraph import Digraph, _decimal

#: Largest level construction builds (dense matrix memory).
MAX_LEVEL = 10


@dataclass(frozen=True)
class LevelParams:
    """Exact parameters of the family at one recursion level.

    k           the level
    order       3**k, the number of vertices
    reg_degree  (order - 1) // 2, the common in- and out-degree
    s           reg_degree - 1, the minimum out-degree of the punctured tournament
    bound       (reg_degree - k) // 2, the subset degree cap
    """

    k: int
    order: int
    reg_degree: int
    s: int
    bound: int

    @property
    def gap_exact(self) -> Fraction:
        """s/2 - bound, which equals (k - 1)/2."""
        return Fraction(self.s, 2) - self.bound


def level_params(level: int) -> LevelParams:
    """Evaluate the closed-form parameters for ``level`` >= 0.

    ``bound`` is always integral: (3**k - 1) // 2 and k have equal
    parity for every k.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {_decimal(level)}")
    order = 3 ** level
    reg = (order - 1) // 2
    assert (reg - level) % 2 == 0
    return LevelParams(
        k=level,
        order=order,
        reg_degree=reg,
        s=reg - 1,
        bound=(reg - level) // 2,
    )


def gap_table(k_max: int) -> list[LevelParams]:
    """Parameters of levels 1..k_max, each with its exact gap.

    Nothing here rounds, and no digraph is materialized, so the level
    count is capped by printing, not by ``MAX_LEVEL``: k_max must lie
    in 1..9000.  At level 9000 the regular degree has 4294 decimal
    digits, within the interpreter's default int-to-str limit of 4300,
    which level 9014 passes.  An out-of-range k_max raises ValueError
    before any row is computed.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {_decimal(k_max)}")
    if k_max > 9000:
        raise ValueError(f"k_max must be <= 9000, got {_decimal(k_max)}")
    rows = [level_params(k) for k in range(1, k_max + 1)]
    for row in rows:
        assert row.gap_exact == Fraction(row.k - 1, 2)
    return rows


def check_level(level: int) -> int:
    """3**level, once ``level`` is known to lie in 0..``MAX_LEVEL``.

    A negative level or one above ``MAX_LEVEL`` raises ValueError.  The
    message names the level and ``MAX_LEVEL`` with its vertex count,
    never 3**level, so every refusal takes bounded time.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {_decimal(level)}")
    if level > MAX_LEVEL:
        raise ValueError(f"level {_decimal(level)} is above the largest level, "
                         f"{MAX_LEVEL} ({3 ** MAX_LEVEL} vertices)")
    return 3 ** level


def _copies(rows: Sequence[int]) -> Iterator[int]:
    """The next level's rows, lazily: copy j of ``rows`` beats copy j + 1 mod 3."""
    n = len(rows)
    block = (1 << n) - 1
    for j in range(3):
        shift, beaten = j * n, block << (j + 1) % 3 * n
        for row in rows:
            yield row << shift | beaten


def ternary_tournament(level: int) -> Digraph:
    """The regular tournament on 3**level vertices, built recursively."""
    check_level(level)
    rows = [0]
    for _ in range(level):
        rows = list(_copies(rows))
    return Digraph(len(rows), rows)


def _punctured_rows(level: int) -> Iterator[int]:
    """`punctured_tournament(level)`'s rows, lazily, built from level - 1."""
    rows = _copies(ternary_tournament(level - 1).rows)
    next(rows)  # vertex 0 is deleted, and vertex v becomes v - 1
    for row in rows:
        yield row >> 1


def punctured_tournament(level: int) -> Digraph:
    """Level-``level`` tournament with vertex 0 deleted.

    The family is vertex-transitive, so which vertex is deleted is
    immaterial up to isomorphism; id 0 is fixed for reproducibility.
    The result has 2n vertices and minimum out-degree exactly n-1,
    where n = (3**level - 1) // 2.  Requires ``level`` >= 1.
    """
    if level == 0:
        raise ValueError("puncturing needs k >= 1: level 0 has one vertex")
    return Digraph(check_level(level) - 1, _punctured_rows(level))


def punctured_level(digraph: Digraph) -> int | None:
    """The level k with ``digraph`` equal to ``punctured_tournament(k)``,
    row for row, or None.

    Only an order 3**k - 1 with 1 <= k <= ``MAX_LEVEL`` can match; any
    other order returns at once.  Otherwise the rows are compared with
    `_punctured_rows(k)`, which holds level k - 1, up to the first that
    differs.
    """
    level = next((k for k in range(1, MAX_LEVEL + 1) if 3 ** k == digraph.n + 1), None)
    if level is None or not all(map(operator.eq, digraph.rows, _punctured_rows(level))):
        return None
    return level


def trit_arc(u: int, v: int, level: int) -> bool:
    """Closed-form arc test for the level-``level`` tournament.

    The arc u->v exists iff at the most significant base-3 digit where
    u and v differ, the digit of v is one more than the digit of u,
    cyclically (digit_v - digit_u == 1 mod 3).
    """
    top = check_level(level)
    if u == v:
        raise ValueError("no self-loops: u and v must differ")
    if not (0 <= u < top and 0 <= v < top):
        raise ValueError(f"vertices must lie in 0..{top - 1}")
    power = top // 3
    while u // power == v // power:
        power //= 3
    return (v // power - u // power) % 3 == 1

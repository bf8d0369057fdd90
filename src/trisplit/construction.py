"""Recursive ternary tournament family and its exact parameters.

Level 0 is the one-vertex tournament.  Level k+1 glues three disjoint
copies of level k cyclically: with the copies on consecutive id blocks
A, B, C, every arc A->B, B->C and C->A is added.  The result is a
regular tournament on 3**k vertices whose every vertex has out-degree
(3**k - 1) // 2.

Vertex ids double as base-3 labels: the most significant trit of a
vertex names its copy (0 -> A, 1 -> B, 2 -> C), recursively.  That
makes the arc relation a closed form over trit strings (`trit_arc`),
which must agree bit-for-bit with the recursive builder.

Deleting one vertex from level k yields the 2n-vertex counterexample
tournament with minimum out-degree n-1, where n = (3**k - 1) // 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .digraph import Digraph

#: Construction refuses digraphs larger than this (dense matrix memory).
DEFAULT_MAX_VERTICES = 3 ** 10


@dataclass(frozen=True)
class LevelParams:
    """Exact parameters of the family at one recursion level.

    order       3**level, the number of vertices
    reg_degree  (order - 1) // 2, the common in- and out-degree
    s           reg_degree - 1, the minimum out-degree of the punctured tournament
    bound       ((order - 1) // 2 - level) // 2, the subset degree cap
    """

    level: int
    order: int
    reg_degree: int
    s: int
    bound: int


def level_params(level: int) -> LevelParams:
    """Evaluate the closed-form parameters for ``level`` >= 0.

    ``bound`` is always integral: (3**k - 1) // 2 and k have equal
    parity for every k.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    order = 3 ** level
    reg = (order - 1) // 2
    assert (reg - level) % 2 == 0
    return LevelParams(
        level=level,
        order=order,
        reg_degree=reg,
        s=reg - 1,
        bound=(reg - level) // 2,
    )


def compose_cyclic(a: Digraph, b: Digraph, c: Digraph,
                   max_vertices: int = DEFAULT_MAX_VERTICES) -> Digraph:
    """Disjoint union of a, b, c plus all arcs a->b, b->c, c->a.

    The three blocks occupy consecutive id ranges in argument order.
    """
    na, nb, nc = a.n, b.n, c.n
    n = na + nb + nc
    if n > max_vertices:
        raise ValueError(f"composed digraph has {n} vertices, limit is {max_vertices}")
    mask_a = (1 << na) - 1
    mask_b = ((1 << nb) - 1) << na
    mask_c = ((1 << nc) - 1) << (na + nb)
    rows = [row | mask_b for row in a.rows]
    rows += [(row << na) | mask_c for row in b.rows]
    rows += [(row << (na + nb)) | mask_a for row in c.rows]
    return Digraph(n, rows)


@functools.lru_cache(maxsize=16)
def _build_level(level: int) -> Digraph:
    if level == 0:
        return Digraph(1, [0])
    prev = _build_level(level - 1)
    return compose_cyclic(prev, prev, prev, max_vertices=3 ** level)


def ternary_tournament(level: int,
                       max_vertices: int = DEFAULT_MAX_VERTICES) -> Digraph:
    """The regular tournament on 3**level vertices, built recursively.

    Results are cached per level; they are immutable, so sharing is safe.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if 3 ** level > max_vertices:
        raise ValueError(
            f"level {level} needs {3 ** level} vertices, limit is {max_vertices}"
        )
    return _build_level(level)


def punctured_tournament(level: int,
                         max_vertices: int = DEFAULT_MAX_VERTICES) -> Digraph:
    """Level-``level`` tournament with vertex 0 deleted.

    The family is vertex-transitive, so which vertex is deleted is
    immaterial up to isomorphism; id 0 is fixed for reproducibility.
    The result has 2n vertices and minimum out-degree exactly n-1,
    where n = (3**level - 1) // 2.  Requires ``level`` >= 1.
    """
    if level < 1:
        raise ValueError("puncturing level 0 would leave the empty digraph")
    return ternary_tournament(level, max_vertices).delete_vertex(0)


def trits(v: int, level: int) -> tuple[int, ...]:
    """Base-3 digits of v, most significant first, padded to ``level``."""
    if not 0 <= v < 3 ** level:
        raise ValueError(f"vertex {v} out of range for level {level}")
    digits = []
    for _ in range(level):
        digits.append(v % 3)
        v //= 3
    return tuple(reversed(digits))


def vertex_from_trits(digits: tuple[int, ...]) -> int:
    """Inverse of :func:`trits`."""
    v = 0
    for d in digits:
        if d not in (0, 1, 2):
            raise ValueError(f"invalid trit {d}")
        v = 3 * v + d
    return v


def trit_arc(u: int, v: int, level: int) -> bool:
    """Closed-form arc test for the level-``level`` tournament.

    The arc u->v exists iff at the most significant base-3 digit where
    u and v differ, the digit of v is one more than the digit of u,
    cyclically (digit_v - digit_u == 1 mod 3).
    """
    if u == v:
        raise ValueError("no self-loops: u and v must differ")
    top = 3 ** level
    if not (0 <= u < top and 0 <= v < top):
        raise ValueError(f"vertices must lie in 0..{top - 1}")
    power = top // 3
    while power:
        du = (u // power) % 3
        dv = (v // power) % 3
        if du != dv:
            return (dv - du) % 3 == 1
        power //= 3
    raise AssertionError("unreachable: u != v must differ in some trit")

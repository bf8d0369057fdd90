"""Upper-bound certificates for subset minimum out-degree.

Given a level-k vertex subset X of size at most (3**k - 1) // 2, the
certifier produces a recursion trace proving that the subdigraph
induced by X has minimum out-degree at most ((3**k - 1) // 2 - k) // 2.
Each node of the trace records which of four argument shapes was
applied, after an optional cyclic relabeling of the three copies
(a digraph automorphism, so degree claims transfer):

base        X is empty, or the level is 0 (where only X = {} fits the
            size precondition); the bound is 0.
empty_part  some copy meets X emptily; rotate so the middle copy is
            the empty one and the first is not.  Every vertex of the
            first copy then keeps all its X-out-neighbors inside its
            own copy, so the copy's regular degree (3**(k-1) - 1) // 2
            bounds the minimum.
two_small   after rotation the first two parts both have size at most
            t = (3**(k-1) - 1) // 2.  The first part satisfies the
            level-(k-1) precondition; its certified bound plus the
            whole second part bounds every first-part vertex.
two_large   after rotation the first two parts both have size at least
            t + 1.  Certify a size-t subset S of the second part at
            level k-1; each further vertex of the part can raise the
            minimum by at most one, and the third part is added whole.

At least one shape always applies: of the three part sizes, two lie on
the same side of t.  When several rotations qualify, the smallest
rotation wins, and a two_small split is preferred over two_large;
with those tie-breaks the certifier is a pure function of (level, X).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .construction import check_level, ternary_tournament
from .digraph import DimensionError, VertexSet, _unpack_rows

BASE = "base"
EMPTY_PART = "empty_part"
TWO_SMALL = "two_small"
TWO_LARGE = "two_large"


@dataclass(frozen=True)
class BoundCertificate:
    """One node of the recursion trace.

    ``subset`` is expressed in the coordinates of its own level, i.e.
    as a subset of 0..3**level-1; the child's subset lives at level-1
    coordinates.  For two_large it is the chosen size-t subset S.
    """

    kind: str
    level: int
    subset: VertexSet
    claimed_bound: int
    rotation: Optional[int] = None
    child: Optional["BoundCertificate"] = None

    def replay(self) -> int:
        """Recompute the bound from the node structure, bottom up.

        Raises ValueError if the tree is malformed (wrong child
        subsets, violated case hypotheses, or inconsistent claims);
        otherwise returns the recomputed bound, which equals
        ``claimed_bound`` on every certificate this module produces.
        """
        bound = self._replay_node()
        if bound != self.claimed_bound:
            raise ValueError(
                f"claimed bound {self.claimed_bound} != replayed bound {bound}"
            )
        return bound

    def _replay_node(self) -> int:
        if self.kind == BASE:
            if len(self.subset) != 0 and self.level != 0:
                raise ValueError("base node on a nonempty subset above level 0")
            return 0
        if self.level < 1:
            raise ValueError(f"{self.kind} node at level {self.level}")
        third = 3 ** (self.level - 1)
        t = (third - 1) // 2
        parts = partition_parts(self.subset, self.level)
        r = self.rotation
        if r not in (0, 1, 2):
            raise ValueError(f"bad rotation {r!r}")
        x_a, x_b, x_c = (len(parts[(i + r) % 3]) for i in range(3))
        if self.kind == EMPTY_PART:
            if x_b != 0 or x_a == 0:
                raise ValueError("empty_part rotation does not empty the middle part")
            return t
        if self.child is None or self.child.level != self.level - 1:
            raise ValueError(f"{self.kind} node needs a level-{self.level - 1} child")
        child_bound = self.child.replay()
        if self.kind == TWO_SMALL:
            if min(x_a, x_b, x_c) == 0:
                raise ValueError("two_small node with an empty part")
            if x_a > t or x_b > t:
                raise ValueError("two_small hypothesis violated")
            if self.child.subset != _local_part(parts[r % 3], r % 3, third):
                raise ValueError("child subset is not the rotated first part")
            return child_bound + x_b
        if self.kind == TWO_LARGE:
            if min(x_a, x_b, x_c) == 0:
                raise ValueError("two_large node with an empty part")
            if x_a < t + 1 or x_b < t + 1:
                raise ValueError("two_large hypothesis violated")
            local_b = _local_part(parts[(1 + r) % 3], (1 + r) % 3, third)
            chosen = self.child.subset
            if len(chosen) != t or chosen.owner_n != third or chosen.bits & ~local_b.bits:
                raise ValueError("two_large child is not a size-t subset of the second part")
            return child_bound + (x_b - t) + x_c
        raise ValueError(f"unknown certificate kind {self.kind!r}")

    def render(self) -> str:
        """Indented text form, one node per line."""
        lines: list[str] = []
        self._render_into(lines, 0)
        return "\n".join(lines)

    def _render_into(self, lines: list[str], depth: int) -> None:
        pad = "  " * depth
        if self.kind == BASE:
            lines.append(f"{pad}base level={self.level} |X|={len(self.subset)} "
                         f"bound={self.claimed_bound}")
            return
        parts = partition_parts(self.subset, self.level)
        r = self.rotation
        sizes = tuple(len(parts[(i + r) % 3]) for i in range(3))
        extra = f" |S|={len(self.child.subset)}" if self.kind == TWO_LARGE else ""
        lines.append(
            f"{pad}{self.kind} r={r} level={self.level} |X|={len(self.subset)} "
            f"parts={sizes}{extra} bound={self.claimed_bound}"
        )
        if self.child is not None:
            self.child._render_into(lines, depth + 1)


def _check_order(subset: VertexSet, level: int) -> int:
    """3**level, once ``subset`` is known to index that many vertices."""
    order = 3 ** level
    if subset.owner_n != order:
        raise DimensionError(
            f"subset indexes {subset.owner_n} vertices, level {level} has {order}")
    return order


def partition_parts(subset: VertexSet, level: int) -> tuple[VertexSet, VertexSet, VertexSet]:
    """Split a level-``level`` subset by most significant trit.

    Returns the intersections with the three copy blocks, still in
    level coordinates.  Requires ``level`` >= 1.
    """
    if level < 1:
        raise ValueError("level 0 has no parts to split")
    order = _check_order(subset, level)
    third = order // 3
    block = (1 << third) - 1
    return tuple(
        VertexSet(subset.bits & (block << (i * third)), order) for i in range(3)
    )


def _local_part(part: VertexSet, block_index: int, third: int) -> VertexSet:
    """Re-index a one-block subset into level-(k-1) coordinates."""
    return VertexSet(part.bits >> (block_index * third), third)


def certify_bound(level: int, subset: VertexSet) -> tuple[int, BoundCertificate]:
    """Certified upper bound for the subset's induced minimum out-degree.

    Precondition: ``subset`` indexes 3**level vertices and has size at
    most (3**level - 1) // 2.  The returned bound never exceeds
    ``level_params(level).bound``, and the actual minimum out-degree of
    the induced subdigraph never exceeds the returned bound.
    """
    cap = (_check_order(subset, level) - 1) // 2
    if len(subset) > cap:
        raise ValueError(f"subset size {len(subset)} exceeds precondition {cap}")
    return _certify(level, subset)


def _certify(level: int, subset: VertexSet) -> tuple[int, BoundCertificate]:
    if level == 0 or len(subset) == 0:
        cert = BoundCertificate(BASE, level, subset, 0)
        return 0, cert
    third = 3 ** (level - 1)
    t = (third - 1) // 2
    parts = partition_parts(subset, level)
    sizes = tuple(len(p) for p in parts)

    if min(sizes) == 0:
        for r in range(3):
            if sizes[(1 + r) % 3] == 0 and sizes[r % 3] > 0:
                cert = BoundCertificate(EMPTY_PART, level, subset, t, rotation=r)
                return t, cert
        raise AssertionError("unreachable: nonempty X with an empty part")

    # all parts nonempty: two sizes share a side of t (pigeonhole);
    # prefer the small side, then the smallest qualifying rotation
    for r in range(3):
        x_a, x_b = sizes[r % 3], sizes[(1 + r) % 3]
        if x_a <= t and x_b <= t:
            local_a = _local_part(parts[r % 3], r % 3, third)
            child_bound, child = _certify(level - 1, local_a)
            bound = child_bound + x_b
            cert = BoundCertificate(TWO_SMALL, level, subset, bound,
                                    rotation=r, child=child)
            return bound, cert
    for r in range(3):
        x_a, x_b, x_c = (sizes[(i + r) % 3] for i in range(3))
        if x_a >= t + 1 and x_b >= t + 1:
            local_b = _local_part(parts[(1 + r) % 3], (1 + r) % 3, third)
            chosen = VertexSet.from_ids(local_b.ids()[:t], third)
            child_bound, child = _certify(level - 1, chosen)
            bound = child_bound + (x_b - t) + x_c
            cert = BoundCertificate(TWO_LARGE, level, subset, bound,
                                    rotation=r, child=child)
            return bound, cert
    raise AssertionError("unreachable: pigeonhole guarantees a case")


def min_identity_check(level: int, subset: VertexSet) -> bool:
    """Check the block decomposition identity of the minimum out-degree.

    For a subset meeting all three copies, the minimum out-degree of
    the induced subdigraph must equal the minimum over the three
    rotations of (within-copy minimum out-degree of a part) plus the
    size of the part it beats wholesale.  Requires ``level`` >= 1 and
    all three parts nonempty.
    """
    parts = partition_parts(subset, level)
    if any(len(p) == 0 for p in parts):
        raise ValueError("identity requires all three parts nonempty")
    t = ternary_tournament(level)
    lhs = t.min_out_degree(subset)
    rhs = min(
        t.min_out_degree(parts[i]) + len(parts[(i + 1) % 3]) for i in range(3)
    )
    return lhs == rhs


def actual_min_out_degree(level: int, subset: VertexSet) -> int:
    """Minimum out-degree of the induced subdigraph; 0 when empty.

    Computed bottom up over the block recursion without building the
    tournament.  Each step groups the blocks of one level in threes
    (A, B, C); a member of A beats all of B's members, so the grouped
    block's minimum is the least, over its nonempty parts, of the
    part's own minimum plus the next part's size, cyclically.
    """
    check_level(level)
    order = _check_order(subset, level)
    size = _unpack_rows((subset.bits,), order)[0].astype(np.int64)
    # an empty block's minimum is ``order``, which no sum below reaches
    low = np.where(size > 0, 0, order)
    for _ in range(level):
        size, low = size.reshape(-1, 3), low.reshape(-1, 3)
        # the next part, cyclically
        low = np.where(size > 0, low + size[:, [1, 2, 0]], order).min(axis=1)
        size = size.sum(axis=1)
    return int(low[0]) if size[0] else 0

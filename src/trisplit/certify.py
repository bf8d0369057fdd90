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
the same side of t.  The certifier picks the first shape in the order
empty_part, two_small, two_large that applies, at its smallest
qualifying rotation, so it is a pure function of (level, X).
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
# the tie-break order; see the module docstring
SHAPES = (EMPTY_PART, TWO_SMALL, TWO_LARGE)


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
        subsets, a child under a leaf, violated case hypotheses, or
        inconsistent claims); otherwise returns the recomputed bound,
        which equals ``claimed_bound`` on every certificate this module
        produces.
        """
        bound, part, child = 0, None, self.child
        if self.kind == BASE:
            _check_order(self.subset, self.level)
            if len(self.subset) != 0 and self.level != 0:
                raise ValueError("base node on a nonempty subset above level 0")
        else:
            # partition_parts refuses a shape node below level 1
            parts = partition_parts(self.subset, self.level)
            r = self.rotation
            shape = _shape(self.kind, self.level, parts, r) if r in (0, 1, 2) else None
            if shape is None:
                raise ValueError(f"no {self.kind!r} shape at rotation {r!r} fits "
                                 f"part sizes {tuple(len(p) for p in parts)}")
            bound, part = shape
        if part is None:
            if child is not None:
                raise ValueError(f"{self.kind} node takes no child")
        else:
            if child is None or child.level != self.level - 1:
                raise ValueError(f"{self.kind} node needs a level-{self.level - 1} child")
            cs = child.subset
            if (cs.owner_n != part.owner_n or cs.bits & ~part.bits
                    or len(cs) != min(len(part), _cap(part.owner_n))):
                raise ValueError(f"{self.kind} child does not fit the part it certifies")
            bound += child.replay()
        if bound != self.claimed_bound:
            raise ValueError(
                f"claimed bound {self.claimed_bound} != replayed bound {bound}"
            )
        return bound

    def render(self) -> str:
        """Indented text form, one node per line."""
        lines: list[str] = []
        node, pad = self, ""
        while node is not None:
            if node.kind == BASE:
                lines.append(f"{pad}base level={node.level} |X|={len(node.subset)} "
                             f"bound={node.claimed_bound}")
            else:
                parts = partition_parts(node.subset, node.level)
                r = node.rotation
                sizes = tuple(len(parts[(i + r) % 3]) for i in range(3))
                extra = f" |S|={len(node.child.subset)}" if node.kind == TWO_LARGE else ""
                lines.append(
                    f"{pad}{node.kind} r={r} level={node.level} |X|={len(node.subset)} "
                    f"parts={sizes}{extra} bound={node.claimed_bound}"
                )
            node, pad = node.child, pad + "  "
        return "\n".join(lines)


def _check_order(subset: VertexSet, level: int) -> int:
    """3**level, once ``level`` passes `check_level` and ``subset`` is
    known to index that many vertices."""
    order = check_level(level)
    if subset.owner_n != order:
        raise DimensionError(
            f"subset indexes {subset.owner_n} vertices, level {level} has {order}")
    return order


def partition_parts(subset: VertexSet, level: int) -> tuple[VertexSet, VertexSet, VertexSet]:
    """Split a level-``level`` subset by most significant trit.

    Returns the intersections with the three copy blocks, still in
    level coordinates.  Requires ``level`` >= 1.
    """
    if level == 0:
        raise ValueError("level 0 has no parts to split")
    order = _check_order(subset, level)
    third = order // 3
    block = (1 << third) - 1
    return tuple(
        VertexSet(subset.bits & (block << (i * third)), order) for i in range(3)
    )


def _cap(order: int) -> int:
    """The largest subset size certified on ``order`` vertices."""
    return (order - 1) // 2


def certify_bound(level: int, subset: VertexSet) -> tuple[int, BoundCertificate]:
    """Certified upper bound for the subset's induced minimum out-degree.

    Precondition: ``subset`` indexes 3**level vertices and has size at
    most (3**level - 1) // 2.  The returned bound never exceeds
    ``level_params(level).bound``, and the actual minimum out-degree of
    the induced subdigraph never exceeds the returned bound.
    """
    cap = _cap(_check_order(subset, level))
    if len(subset) > cap:
        raise ValueError(f"subset size {len(subset)} exceeds precondition {cap}")
    cert = _certify(level, subset)
    return cert.claimed_bound, cert


def _shape(kind: str, level: int, parts: tuple[VertexSet, ...], r: int):
    """One shape's step at rotation ``r``, or None if its hypotheses fail.

    The step is what the node adds to its child's bound, and the part
    the child certifies, in level-(k-1) coordinates (None: no child).
    A two_large child certifies t ids of that part.
    """
    third = 3 ** (level - 1)
    t = _cap(third)
    x_a, x_b, x_c = len(parts[r]), len(parts[(r + 1) % 3]), len(parts[(r + 2) % 3])
    if kind == EMPTY_PART and x_b == 0 < x_a:
        return t, None
    if min(x_a, x_b, x_c) == 0:
        return None
    if kind == TWO_SMALL and x_a <= t and x_b <= t:
        step, j = x_b, r
    elif kind == TWO_LARGE and x_a > t and x_b > t:
        step, j = (x_b - t) + x_c, (1 + r) % 3
    else:
        return None
    return step, VertexSet(parts[j].bits >> (j * third), third)


def _certify(level: int, subset: VertexSet) -> BoundCertificate:
    if level == 0 or len(subset) == 0:
        return BoundCertificate(BASE, level, subset, 0)
    parts = partition_parts(subset, level)
    # at least one shape fits: two part sizes share a side of t
    kind, r, (bound, part) = next(
        (kind, r, shape) for kind in SHAPES for r in range(3)
        if (shape := _shape(kind, level, parts, r)) is not None)
    child = None
    if part is not None:
        t = _cap(part.owner_n)
        if len(part) > t:  # two_large: the first t ids
            part = VertexSet.from_ids(part.ids()[:t], part.owner_n)
        child = _certify(level - 1, part)
        bound += child.claimed_bound
    return BoundCertificate(kind, level, subset, bound, rotation=r, child=child)


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

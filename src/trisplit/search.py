"""Exact maximization of subset minimum out-degree.

Two exact engines compute the max over vertex subsets X of the
requested sizes of the minimum out-degree of the induced subdigraph:

* ``enumerate_max`` (``blocks``) sweeps every subset of each requested
  size of a digraph of at most 64 vertices; ``budget`` counts subsets.
* ``branch_bound_max`` (``bb``) proves the maximum for one size on any
  number of vertices; ``budget`` counts search nodes.

Both return the id-lexicographically smallest attaining subset,
preferring a nonempty witness when the empty set ties.  How each
engine works, and why its pruning is sound, is in its docstring.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .construction import check_level, level_params, ternary_tournament
from .digraph import Digraph, VertexSet, subset_min_degree

#: Default ceiling on the subsets, or branch-and-bound nodes, one call may visit.
DEFAULT_BUDGET = 1 << 27

#: Most vertices the exhaustive sweep takes: one bit each of a uint64 mask.
_SWEEP_LIMIT = 64
#: (high, low) pairs per kernel tile: a tile's two uint8 arrays fit in L2.
_CHUNK = 1 << 16
#: Added to a half degree of a vertex missing from that half's mask.  A
#: half degree is at most 32 and a member's sum at most 63, so a
#: non-member's sum, at most 191, exceeds every member's in uint8.
_ABSENT = 128


class BudgetExceeded(RuntimeError):
    """A search would go past its budget.

    ``required`` counts ``noun``: the subsets a sweep would visit, at
    most 2**64 since the sweep takes at most 64 vertices, or
    branch-and-bound nodes.  The noun takes a plural ``s`` unless
    ``required`` is 1, and ``qualifier`` follows it.  The node count is
    not known in advance, so there it is the number of the node at
    which the search stopped, ``budget + 1`` for a budget of at least
    zero.
    """

    def __init__(self, required: int, budget: int, noun: str = "subset",
                 qualifier: str = ""):
        unit = noun if required == 1 else f"{noun}s"
        super().__init__(f"search needs {required} {unit}{qualifier}, "
                         f"budget allows {budget}")
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exact search.

    ``by_size`` maps each searched size to (best value, witness) for
    that size alone; ``best_value`` and ``best_set`` are derived from
    it.  Both engines are exact, so ``exact`` is a class constant.
    ``engine`` names the engine that ran: ``blocks`` or ``bb``;
    ``pruned`` counts the branches that branch and bound cut.
    """

    exact: ClassVar[bool] = True

    by_size: dict[int, tuple[int, VertexSet]]
    nodes_visited: int
    elapsed: float
    engine: str
    pruned: int = 0

    @property
    def best_value(self) -> int:
        return max(v for v, _ in self.by_size.values())

    @property
    def best_set(self) -> VertexSet:
        """A witness of ``best_value``: nonempty witnesses first, then
        the smallest id tuple."""
        best = self.best_value
        return min((w for v, w in self.by_size.values() if v == best),
                   key=lambda w: (not w.bits, w.ids()))


@dataclass(frozen=True)
class VerifyOutcome:
    """Result of checking one level's subset degree cap.

    ``report`` is the exact sweep of the level's tournament, and
    ``passed`` says whether its maximum stays within ``bound``.  A
    level the sweep cannot take or a family larger than the budget
    raises instead, so every outcome carries a verdict.
    """

    bound: int
    report: SearchReport

    @property
    def passed(self) -> bool:
        return self.report.best_value <= self.bound


def _requested(n: int, sizes) -> tuple[int, ...]:
    """Sorted distinct sizes, each checked to lie in 0..n."""
    if isinstance(sizes, int):
        sizes = [sizes]
    out = tuple(sorted(set(int(m) for m in sizes)))
    if not out:
        raise ValueError("no subset sizes requested")
    for m in out:
        if not 0 <= m <= n:
            raise ValueError(f"subset size {m} out of range for n={n}")
    return out


def _reverse(mask: int, n: int) -> int:
    """``mask`` under the relabel v -> n-1-v of an n-vertex digraph."""
    return int(format(mask, f"0{n}b")[::-1], 2)


def _degree_table(adj: np.ndarray, masks: np.ndarray, own: slice) -> np.ndarray:
    """uint8 table [v, i]: out-degree of vertex v into ``masks[i]``.

    ``adj`` holds the adjacency rows aligned to the half the masks come
    from, and ``own`` is that half's vertices, bit b being vertex
    own.start + b.  An own vertex missing from a mask reads
    ``_ABSENT`` more, so it loses every minimum.  The AND+popcount runs
    on blocks of vertex rows holding at most ``_CHUNK`` words; there
    are never more than ``_CHUNK`` masks.
    """
    table = np.empty((len(adj), len(masks)), np.uint8)
    step = _CHUNK // len(masks)
    scratch = np.empty((min(step, len(adj)), len(masks)), masks.dtype)
    for v in range(0, len(adj), step):
        block = adj[v:v + step, None]
        words = scratch[:len(block)]
        np.bitwise_and(block, masks, out=words)
        np.bitwise_count(words, out=table[v:v + step])
    members = table[own]
    # bit b of masks[i] at [i, b], for the own vertices' bits
    bits = np.unpackbits(masks[:, None].astype(masks.dtype.newbyteorder("<")).view(np.uint8),
                         axis=1, count=len(members), bitorder="little")
    bits ^= 1
    bits *= _ABSENT
    members |= bits.T
    return table


def _size_classes(bits: int, sizes, dtype) -> dict[int, np.ndarray]:
    """{q: every ``bits``-bit mask of popcount q, ascending} for each q
    in ``sizes``, 0 <= q <= bits.

    Classes up to the middle are built each from the one before it: the
    masks with highest bit h are the size-(q-1) masks below h, plus h.
    A class past the middle is the complement of the class bits-q,
    reversed, so no class larger than the largest requested one is
    built.
    """
    built = [np.zeros(1, dtype=dtype)]  # the single size-0 mask
    for q in range(1, max((min(q, bits - q) for q in sizes), default=0) + 1):
        cur = np.empty(math.comb(bits, q), dtype=dtype)
        lo = 0
        for h in range(q - 1, bits):
            c = math.comb(h, q - 1)
            np.bitwise_or(built[-1][:c], dtype(1 << h), out=cur[lo:lo + c])
            lo += c
        built.append(cur)
    full = dtype((1 << bits) - 1)
    return {q: built[q] if 2 * q <= bits else full ^ built[bits - q][::-1]
            for q in sizes}


def _blocks_by_size(digraph: Digraph,
                    sizes: tuple[int, ...]) -> dict[int, tuple[int, int]]:
    """(best value, largest mask attaining it) per size, vectorized.

    The vertex bits split into a low half of n//2 bits and a high half
    with the rest, so a size-m mask is a high mask h of p bits ORed with
    a low mask l of m-p bits, and a vertex's out-degree into h|l is its
    degree into h plus its degree into l.  A tile, at most ``_CHUNK``
    (h, l) pairs of one part p, takes a degree table over its high
    masks and one over its low masks, and scores every pair as the
    min-plus sum min over v of H[v, h] + L[v, l].  The half classes
    ascend, so the last attainer of a tile in row-major order is its
    largest attaining mask.
    """
    n = digraph.n
    dtype = np.uint32 if n <= 32 else np.uint64
    adj = np.array(digraph.rows, dtype=dtype)
    low_bits = n // 2
    high_bits = n - low_bits
    parts = {m: range(max(0, m - low_bits), min(m, high_bits) + 1) for m in sizes if m}
    highs = _size_classes(high_bits, {p for ps in parts.values() for p in ps}, dtype)
    lows = _size_classes(low_bits, {m - p for m, ps in parts.items() for p in ps}, dtype)
    out: dict[int, tuple[int, int]] = {}
    if 0 in sizes:
        out[0] = (0, 0)
    high_adj = adj >> dtype(low_bits)
    # a tile's running minimum and one vertex's sums, shared by every tile
    buffers = np.empty((2, _CHUNK), np.uint8)
    for m, ps in parts.items():
        best = (-1, 0)
        for p in ps:
            high, low = highs[p], lows[m - p]
            # whole rows per tile, or one row in pieces
            width = min(len(low), _CHUNK)
            step = _CHUNK // width
            for c in range(0, len(low), width):
                cols = _degree_table(adj, low[c:c + width], slice(0, low_bits))
                for r in range(0, len(high), step):
                    rows = _degree_table(high_adj, high[r:r + step], slice(low_bits, n))
                    shape = (rows.shape[1], cols.shape[1])
                    mins, sums = buffers[:, :shape[0] * shape[1]].reshape(2, *shape)
                    np.add(rows[0, :, None], cols[0], out=mins)
                    for v in range(1, n):
                        np.add(rows[v, :, None], cols[v], out=sums)
                        np.minimum(mins, sums, out=mins)
                    value = int(mins.max())
                    # the last attainer in row-major order is the largest mask
                    last = mins.size - 1 - int(np.argmax(mins.ravel()[::-1] == value))
                    i, j = divmod(last, shape[1])
                    best = max(best, (value, int(high[r + i]) << low_bits | int(low[c + j])))
        out[m] = best
    return out


def enumerate_max(digraph: Digraph, sizes, budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Exhaustive maximum of min-out-degree over the given subset sizes.

    ``sizes`` is a single size or an iterable of sizes, and the digraph
    has at most 64 vertices.  Refuses with :class:`BudgetExceeded`,
    before any enumeration, when the requested sizes hold more than
    ``budget`` subsets, the count ``nodes_visited`` reports.  Each
    subset is scored as a min-plus sum of two half-class degree tables.
    Memory is one tile of ``_CHUNK`` uint8 pairs, the tile's n-row
    degree tables, one block of AND words and the half-width size
    classes, none larger than the largest requested class: 3432 masks
    for every size up to 13 of 27 vertices.
    """
    t0 = time.perf_counter()
    n = digraph.n
    sizes = _requested(n, sizes)
    if n > _SWEEP_LIMIT:
        raise ValueError(f"blocks engine requires at most {_SWEEP_LIMIT} vertices")
    required = sum(math.comb(n, m) for m in sizes)
    if required > budget:
        raise BudgetExceeded(required, budget)
    # under v -> n-1-v the id-lexicographically smallest witness is the
    # numerically largest attaining mask, which the sweep keeps
    flipped = Digraph(n, [_reverse(row, n) for row in reversed(digraph.rows)])
    by_size = {m: (value, VertexSet(_reverse(mask, n), n))
               for m, (value, mask) in _blocks_by_size(flipped, sizes).items()}
    return SearchReport(
        by_size=by_size,
        nodes_visited=required,
        elapsed=time.perf_counter() - t0,
        engine="blocks",
    )


def _settle(rows: list[int], sel: int, pool: int, left: int, t: int,
            hi: int) -> tuple[int, int, int] | None:
    """One branch-and-bound node's bounds and forced picks, to a fixpoint.

    Takes the selected and candidate masks, the picks left and the
    bounds t and hi of :func:`branch_bound_max`, and returns them with
    every vertex that fails a bound dropped and every forced vertex
    picked, or None when no m-set under the node reaches t.  With deg =
    a + b, ``others`` the candidates' count and c a vertex's candidate
    non-out-neighbours, ``forced`` = deg + left - others = a + r' - c.
    """
    others = pool.bit_count()
    if others < left:
        return None
    union = sel | pool
    while True:
        # every cut and forced pick takes a candidate
        start = others
        rest = union
        while rest:
            low = rest & -rest
            rest ^= low
            row = rows[low.bit_length() - 1]
            deg = (row & union).bit_count()
            if deg >= t:
                a = (row & sel).bit_count()
                picks = left if low & sel else left - 1
                forced = deg + left - others
                if a + picks >= t and a <= hi and forced <= hi:
                    # a selected vertex with no slack forces picks, all
                    # read off this one state
                    if not low & sel or (a < hi and a + left > t and deg > t
                                         and forced < hi):
                        continue
                    out = row & pool
                    non = pool ^ out
                    drop = (out if a == hi else 0) | (non if a + left == t else 0)
                    take = (out if deg == t else 0) | (non if forced == hi else 0)
                    if drop | take:
                        union ^= drop
                        sel |= take
                        pool = union ^ sel
                        rest &= union
                        # others >= left still holds: hi >= t makes |drop| <= others - left
                        others = pool.bit_count()
                        left -= take.bit_count()
                    continue
            if low & sel or others == left:
                return None
            union ^= low
            pool ^= low
            others -= 1
        if others == start:
            return sel, pool, left


def branch_bound_max(digraph: Digraph, target_size: int,
                     budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Exact maximum over subsets of exactly ``target_size`` vertices.

    Depth-first selection in increasing id order, on an explicit stack
    so that depth is not limited by the interpreter's recursion limit.
    At a node, let t = best+1 be the value still to reach, r the picks
    left to reach size m, and, for a vertex, a and b its out-neighbours
    among the selected vertices and among the candidates.  A vertex
    takes r' more picks beside itself: r if selected, r-1 if a
    candidate.  Pruning rules, each sound because it cuts only
    branches that hold no m-set of minimum out-degree t or more:

    * ceiling: a tournament's size-m subset has a vertex beaten at
      least (m-1)//2 times inside it, so the search stops once the
      running best reaches floor((m-1)/2) (m-1 for general digraphs);
    * capped potential: a vertex ends with at most a + min(r', b)
      out-neighbours, since only r' more vertices join beside it;
    * arc count, tournaments only: an m-vertex tournament holds C(m,2)
      arcs, so if the other m-1 out-degrees are at least t, a vertex's
      is at most hi = C(m,2) - (m-1)t; and at least a + max(0, r' - c)
      out-neighbours are forced on a vertex with c non-out-neighbours
      left among the candidates.  At t = (m-1)/2, hi = t, and the
      search asks for a regular subtournament;
    * size: a branch dies when fewer than r candidates remain.

    A vertex that fails a bound leaves the candidates, or kills the
    branch when it is selected.  A selected vertex that passes them
    forces picks, with deg = a + b and c its candidate
    non-out-neighbours:

    * a == hi: one more out-neighbour would break the arc count, so its
      candidate out-neighbours leave;
    * a + r == t: it reaches t only if every pick left is an
      out-neighbour, so its candidate non-out-neighbours leave;
    * deg == t: it reaches t only with every out-neighbour it has left,
      so its candidate out-neighbours are selected;
    * a + r - c == hi: at most hi - a = r - c picks may be
      out-neighbours, so the other c picks are all its candidate
      non-out-neighbours, which are selected.

    Each rule too cuts only completions that cannot reach t, so a
    forced pick lies in every completion that survives, and branching
    on the lowest candidate, include first, still reaches the sets in
    lexicographic order; the search keeps the first attainer of each
    new best value.  The four rules read one state of the node: a
    degree counted before a cut and used after it picks wrongly.  A
    node whose forced picks fill the set is a leaf.  One pass over the
    selected vertices and the candidates, iterated to a fixpoint,
    applies every rule.

    Raises :class:`BudgetExceeded` when the search is about to visit
    node ``budget + 1``.
    """
    n = digraph.n
    (m,) = _requested(n, target_size)
    t0 = time.perf_counter()
    rows = digraph.rows
    tournament = digraph.is_tournament()
    ceiling = (m - 1) // 2 if tournament else m - 1
    best, best_mask, visited, pruned = -1, 0, 0, 0
    # the arc-count bound hi; m-1 never cuts, and stays outside tournaments
    hi = m - 1
    # (selected, candidates, picks left); the include branch pops first
    stack = [(0, (1 << n) - 1, m)]
    while stack:
        sel, pool, left = stack.pop()
        if visited >= budget:
            raise BudgetExceeded(visited + 1, budget, "node", " or more")
        visited += 1
        if left:
            node = _settle(rows, sel, pool, left, best + 1, hi)
            if node is None:
                pruned += 1
                continue
            sel, pool, left = node
            if left:
                low = pool & -pool
                stack.append((sel, pool ^ low, left))
                stack.append((sel | low, pool ^ low, left - 1))
                continue
        # a full set, picked or forced
        val = subset_min_degree(rows, sel)
        if val > best:
            best, best_mask = val, sel
            if val >= ceiling:
                break
            if tournament:
                hi = m * (m - 1) // 2 - (m - 1) * (val + 1)
    return SearchReport(
        by_size={m: (best, VertexSet(best_mask, n))},
        nodes_visited=visited,
        pruned=pruned,
        elapsed=time.perf_counter() - t0,
        engine="bb",
    )


def verify_bound(level: int, budget: int = DEFAULT_BUDGET) -> VerifyOutcome:
    """Exhaustively check the level's subset degree cap.

    Sweeps every subset of size 0..(3**level - 1)//2 of the level's
    tournament and compares the exact maximum against the closed-form
    bound.  A level past the construction limit, or above 3, whose
    tournament has more than 64 vertices, raises ValueError before the
    tournament is built.  At levels 0..3 ``enumerate_max`` raises
    :class:`BudgetExceeded` before it sweeps when the 2**(3**level - 1)
    subsets exceed ``budget``.
    """
    check_level(level)
    params = level_params(level)
    if params.order > _SWEEP_LIMIT:
        raise ValueError(f"level {level} has {params.order} vertices, "
                         f"the exhaustive sweep takes at most {_SWEEP_LIMIT}")
    report = enumerate_max(ternary_tournament(level), range(params.reg_degree + 1),
                           budget=budget)
    return VerifyOutcome(params.bound, report)

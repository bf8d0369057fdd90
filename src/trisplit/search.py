"""Exact maximization of subset minimum out-degree.

Two exact engines compute the max over vertex subsets X of the
requested sizes of the minimum out-degree of the induced subdigraph:

* ``enumerate_max`` (``blocks``) sweeps every subset of each requested
  size of a digraph of at most 64 vertices; ``budget`` counts subsets.
  It tests a tile of subsets against a threshold with one AND over
  packed bit rows; each row block's degree table serves every size.
  Blocks that cannot beat a size's best under :func:`_ceiling` go
  untested, and :func:`verify_bound` sweeps only the family's
  canonical subsets, yet ``nodes_visited`` counts every subset.
* ``branch_bound_max`` (``bb``) proves the maximum for one size on any
  number of vertices; ``budget`` counts search nodes.

Both return the id-lexicographically smallest attaining subset,
preferring a nonempty witness when the empty set ties.  How each
engine works, and why its pruning is sound, is in its docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .construction import check_level, level_params, ternary_tournament
from .digraph import Digraph, VertexSet, _decimal, subset_min_degree

#: Default ceiling on the subsets, or branch-and-bound nodes, one call may visit.
DEFAULT_BUDGET = 1 << 27

#: Most vertices the exhaustive sweep takes: one bit each of two 32-bit
#: mask halves.
_SWEEP_LIMIT = 64
#: uint64 words (256 KB) in one array of the sweep: a column block's
#: bitset table, a tile's gather and indices, a row block's uint8 table,
#: whose AND holds four times that.
_CHUNK = 1 << 15
#: Added to a half degree of a vertex missing from that half's mask, so
#: a missing vertex reads at least 128, above every threshold (at most
#: 64), and at most 160, within uint8.
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
                         f"budget allows {_decimal(budget)}")
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exact search, a value: it carries no timing, so
    equal calls give equal reports.

    ``by_size`` maps each searched size to (best value, witness) for
    that size alone; ``best_value`` and ``best_set`` are derived from
    it.  Both engines are exact, so ``exact`` is a class constant.
    ``engine`` names the engine that ran: ``blocks`` or ``bb``;
    ``pruned`` counts the branches that branch and bound cut.
    """

    exact: ClassVar[bool] = True

    by_size: dict[int, tuple[int, VertexSet]]
    nodes_visited: int
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
    level the sweep cannot take raises instead, so every outcome
    carries a verdict.
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
            raise ValueError(f"subset size {_decimal(m)} out of range for n={n}")
    return out


def _reverse(mask: int, n: int) -> int:
    """``mask`` under the relabel v -> n-1-v of an n-vertex digraph."""
    return int(format(mask, f"0{n}b")[::-1], 2)


def _degree_table(adj: np.ndarray, masks: np.ndarray, own: slice) -> np.ndarray:
    """uint8 table [v, i]: out-degree of vertex v into ``masks[i]``.

    ``adj`` holds each vertex's row half over the half the uint32
    ``masks`` come from, and ``own`` is that half's vertices, bit b
    being vertex own.start + b.  An own vertex missing from a mask reads
    ``_ABSENT`` more, so it passes every threshold.  The AND holds one
    uint32 temporary, four times the table.
    """
    table = np.bitwise_count(adj[:, None] & masks)
    members = table[own]
    # bit b of masks[i] at [i, b], for the own vertices' bits
    bits = np.unpackbits(masks[:, None].astype("<u4").view(np.uint8),
                         axis=1, count=len(members), bitorder="little")
    bits ^= 1
    bits *= _ABSENT
    members |= bits.T
    return table


def _size_classes(bits: int, sizes) -> dict[int, np.ndarray]:
    """{q: every ``bits``-bit mask of popcount q, ascending, as uint32}
    for each q in ``sizes``, 0 <= q <= bits <= 32.

    Classes up to the middle are built each from the one before it: the
    masks with highest bit h are the size-(q-1) masks below h, plus h.
    A class past the middle is the complement of the class bits-q,
    reversed, so no class larger than the largest requested one is
    built.
    """
    built = [np.zeros(1, np.uint32)]  # the single size-0 mask
    for q in range(1, max((min(q, bits - q) for q in sizes), default=0) + 1):
        cur = np.empty(math.comb(bits, q), np.uint32)
        lo = 0
        for h in range(q - 1, bits):
            c = math.comb(h, q - 1)
            np.bitwise_or(built[-1][:c], np.uint32(1 << h), out=cur[lo:lo + c])
            lo += c
        built.append(cur)
    full = np.uint32((1 << bits) - 1)
    return {q: built[q] if 2 * q <= bits else full ^ built[bits - q][::-1]
            for q in sizes}


def _ceiling(m: int, tournament: bool) -> int:
    """Most an m-set's minimum out-degree can be: an m-set of a tournament
    holds C(m,2) arcs, so (m-1)//2 there, and m-1 in any digraph."""
    return (m - 1) // 2 if tournament else m - 1


def _start(best: tuple[int, int], top: int) -> int:
    """Least value a mask up to ``top`` needs to raise ``best``; a tie needs a larger mask."""
    return best[0] + (top < best[1])


def _level_bits(degrees: np.ndarray, top: int) -> np.ndarray:
    """Bitset table of a degree table [v, i] over one block of masks.

    Word row v * (top + 1) + a holds, bit i % 64 of word i // 64, whether
    degrees[v, i] >= a, for a = 0..top.  It is packed one level at a
    time, faster than one 3-D packbits, and the tail bits past the last
    mask stay 0, so level 0 holds exactly the block's masks.
    """
    n, width = degrees.shape
    words = -(-width // 64)
    table = np.zeros((n, top + 1, 8 * words), np.uint8)
    for a in range(top + 1):
        packed = np.packbits(degrees >= a, axis=1, bitorder="little")
        table[:, a, :packed.shape[1]] = packed
    return table.view("<u8").reshape(n * (top + 1), words)


def _sweep_block(low_adj: np.ndarray, high_table: np.ndarray, high: np.ndarray,
                 low: np.ndarray, m: int, best: tuple[int, int],
                 ceiling: int) -> tuple[int, int]:
    """``best`` raised to the best (value, mask) among the size-m masks
    h << low_bits | l, h in the row block ``high`` and l in ``low``.

    A column block of low masks takes the :func:`_level_bits` table of
    its degree table L.  A pair (h, l) reaches T iff every vertex v
    holds bit l at level clip(T - H[v, h], 0, m), H = ``high_table``; a
    vertex missing from h reads ``_ABSENT`` in H, so at level 0, which
    holds every l.  So a tile, a view of a few columns of H, is tested
    at T by one gather and one AND.

    A tile starts at :func:`_start` and climbs to ``ceiling`` while some
    pair reaches T, keeping the last set bit, in row-major order, of
    each T reached: the largest mask reaching T, as a tile's rows and
    columns ascend.  Results are max-ed into ``best``, so tiles go in
    any order.  A column block or tile whose start passes ``ceiling``
    holds no pair that can raise ``best``, so it is skipped untested.
    """
    n = len(low_adj)
    low_bits = n // 2
    # the word row of vertex v at level 0
    base = np.arange(n)[:, None] * (m + 1)
    # a column block's table holds about _CHUNK words
    width = max(1, min(len(low), 64 * _CHUNK // (n * (m + 1))))
    words = -(-width // 64)
    # so do a tile's gather (words per vertex and row) and indices, made
    # once: fresh ones per threshold cost enumerate_max(punctured level 3,
    # 13) 11% and leave verify_bound(3) and 40- and 64-vertex sweeps flat
    step = max(1, min(len(high), _CHUNK // (n * (words + 1))))
    gather = np.empty(n * step * words, np.uint64)
    index = np.empty(n * step, np.intp)
    for c in reversed(range(0, len(low), width)):
        cols = low[c:c + width]
        if _start(best, int(high[-1]) << low_bits | int(cols[-1])) > ceiling:
            continue
        table = _level_bits(_degree_table(low_adj, cols, slice(0, low_bits)), m)
        # a narrower last block packs into fewer words
        span = table.shape[1]
        for r in reversed(range(0, len(high), step)):
            rows = high[r:r + step]
            degrees = high_table[:, r:r + step]
            levels = gather[:degrees.size * span].reshape(n, len(rows), span)
            at = index[:degrees.size].reshape(n, len(rows))
            t = _start(best, int(rows[-1]) << low_bits | int(cols[-1]))
            while t <= ceiling:
                np.subtract(base + t, degrees, out=at)
                np.maximum(at, base, out=at)
                # every index is in range; "clip" lets take fill ``out`` unbuffered
                np.take(table, at, axis=0, out=levels, mode="clip")
                reach = np.bitwise_and.reduce(levels, axis=0)
                hits = np.flatnonzero(reach)
                if not len(hits):
                    break
                last = int(hits[-1])
                i, w = divmod(last, span)
                j = 64 * w + int(reach.flat[last]).bit_length() - 1
                best = max(best, (t, int(rows[i]) << low_bits | int(cols[j])))
                t += 1
    return best


def _blocks_by_size(rows: list[int], sizes: tuple[int, ...], tournament: bool,
                    blocks=()) -> dict[int, tuple[int, int]]:
    """(best value, largest mask attaining it) per size of the digraph
    with adjacency ``rows``, vectorized.

    The vertex bits split into a low half of n//2 bits and a high half
    with the rest, so a size-m mask is a high mask h of p bits ORed with
    a low mask l of m-p bits, and a vertex's out-degree into h|l is its
    degree into h plus its degree into l.  Masks and each vertex's row
    halves are uint32, since a half has at most 32 bits.  High class p,
    largest first so the largest masks come early, goes by row blocks,
    whose degree table is built once for :func:`_sweep_block` at every
    size that pairs with p and whose best the block can still raise; a
    block that none can is skipped.  Every pair reaches 0, and every
    mask is above -1, so a size starts at (0, -1).

    ``blocks`` holds masks of id intervals, flipped; a block's top bit
    is its first vertex, its least id in the unflipped labels.  The half
    holding a block's first vertex keeps only the masks that hold it or
    miss the block, so the sweep still covers every subset holding the
    first vertex of each block it meets.  No class empties: the q least
    ids of a half hold the first vertex of every block they meet.
    """
    n = len(rows)
    low_bits = n // 2
    high_bits = n - low_bits
    low_adj = np.array([row & ((1 << low_bits) - 1) for row in rows], np.uint32)
    high_adj = np.array([row >> low_bits for row in rows], np.uint32)
    parts = {m: range(max(0, m - low_bits), min(m, high_bits) + 1) for m in sizes if m}
    highs = _size_classes(high_bits, {p for ps in parts.values() for p in ps})
    lows = _size_classes(low_bits, {m - p for m, ps in parts.items() for p in ps})
    for block in blocks:
        # a block straddling the halves is checked from its first vertex's half
        first = 1 << block.bit_length() - 1
        half, shift = (highs, low_bits) if first >> low_bits else (lows, 0)
        first, block = np.uint32(first >> shift), np.uint32(block >> shift)
        for q, masks in half.items():
            half[q] = masks[(masks & block == 0) | (masks & first != 0)]
    best = {m: (0, -1) for m in parts}
    ceiling = {m: _ceiling(m, tournament) for m in parts}
    height = max(1, 8 * _CHUNK // max(n, 1))
    for p in sorted(highs, reverse=True):
        for r in reversed(range(0, len(highs[p]), height)):
            block = highs[p][r:r + height]
            top = int(block[-1]) << low_bits
            todo = [m for m, ps in parts.items()
                    if p in ps and _start(best[m], top | int(lows[m - p][-1])) <= ceiling[m]]
            if not todo:
                continue
            table = _degree_table(high_adj, block, slice(low_bits, n))
            for m in todo:
                best[m] = _sweep_block(low_adj, table, block, lows[m - p], m, best[m], ceiling[m])
    return ({0: (0, 0)} if 0 in sizes else {}) | best


def enumerate_max(digraph: Digraph, sizes, budget: int = DEFAULT_BUDGET, *,
                  _blocks=()) -> SearchReport:
    """Exhaustive maximum of min-out-degree over the given subset sizes.

    ``sizes`` is a single size or an iterable of sizes, and the digraph
    has at most 64 vertices.  Refuses with :class:`BudgetExceeded`,
    before any enumeration, when the requested sizes hold more than
    ``budget`` subsets, the count ``nodes_visited`` reports.  It covers
    every subset, a tile at a time (see :func:`_sweep_block`), but
    tests only the blocks that can still beat a size's best, and none
    that ``_blocks``, a private argument of :func:`verify_bound`, rules
    out (see :func:`_blocks_by_size`).  It holds a row block's degree
    table, a column block's bitset table and a tile's gather, each
    about ``_CHUNK`` words, the uint32 AND behind a degree table, four
    times that, and the half-width size classes: 3432 masks for every
    size up to 13 of 27 vertices.
    """
    n = digraph.n
    sizes = _requested(n, sizes)
    if n > _SWEEP_LIMIT:
        raise ValueError(f"blocks engine requires at most {_SWEEP_LIMIT} vertices")
    required = sum(math.comb(n, m) for m in sizes)
    if required > budget:
        raise BudgetExceeded(required, budget)
    tournament = digraph.is_tournament()
    # under v -> n-1-v the id-lexicographically smallest witness is the
    # numerically largest attaining mask, which the sweep keeps
    flipped = [_reverse(row, n) for row in reversed(digraph.rows)]
    blocks = [_reverse(block, n) for block in _blocks]
    by_size = {m: (value, VertexSet(_reverse(mask, n), n)) for m, (value, mask)
               in _blocks_by_size(flipped, sizes, tournament, blocks).items()}
    return SearchReport(
        by_size=by_size,
        nodes_visited=required,
        engine="blocks",
    )


def _settle(live: list[tuple[int, int]], sel: int, pool: int, left: int, t: int,
            hi: int) -> tuple[int, int, int] | None:
    """One branch-and-bound node's bounds and forced picks, to a fixpoint.

    Takes the node's live vertices, selected and candidate, as (bit,
    row) pairs in id order, the selected and candidate masks, the picks
    left and the bounds t and hi of :func:`branch_bound_max`, and
    returns the masks and picks with every vertex that fails a bound
    dropped and every forced vertex picked, or None when no m-set under
    the node reaches t.  A pass skips the pairs whose bit has left the
    node, so it visits the vertices in id order against the state the
    vertices before them left.  With deg = a + b, ``others`` the
    candidates' count and c a vertex's candidate non-out-neighbours,
    the forced count deg + left - others = a + r' - c is at most hi
    exactly when deg is at most ``cap`` = hi - left + others.
    """
    others = pool.bit_count()
    if others < left:
        return None
    union = sel | pool
    # every candidate's a meets a + left > t and a <= hi, as 0 <= a <= |sel|
    sure = left > t and sel.bit_count() <= hi
    cap = hi - left + others
    while True:
        # every cut and forced pick takes a candidate
        start = others
        for bit, row in live:
            if not bit & union:
                continue
            deg = (row & union).bit_count()
            if bit & sel:
                a = (row & sel).bit_count()
                if deg < t or a + left < t or a > hi or deg > cap:
                    return None
                # a selected vertex with no slack forces picks, all read
                # off this one state; one with slack skips the masks
                if a < hi and a + left > t and t < deg < cap:
                    continue
                out = row & pool
                non = pool ^ out
                drop = (out if a == hi else 0) | (non if a + left == t else 0)
                take = (out if deg == t else 0) | (non if deg == cap else 0)
                if drop | take:
                    union ^= drop
                    sel |= take
                    pool = union ^ sel
                    # others >= left still holds: hi >= t makes |drop| <= others - left
                    others = pool.bit_count()
                    left -= take.bit_count()
                    sure = left > t and sel.bit_count() <= hi
                    cap = hi - left + others
                continue
            if t <= deg <= cap and (sure or t - left < (row & sel).bit_count() <= hi):
                continue
            if others == left:
                return None
            union ^= bit
            pool ^= bit
            others -= 1
            cap -= 1
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

    * ceiling: the search stops once the running best reaches
      :func:`_ceiling`, which no m-set passes;
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

    Each stack entry carries its node's live vertices as (bit, row)
    pairs in id order, built at the root from ``digraph.rows``, and a
    pass walks them in place of peeling the union's bits.  A settle that
    shrinks the union filters the pairs before the children take them,
    so a pass costs O(live vertices), not O(n): the vertices cut near
    the root, such as the arcless bulk of a sparse digraph, are never
    walked again.  Both children share the list; the exclude child's
    dropped candidate is skipped by its pass.  The root's bits, ints of
    up to n bits, take about half the memory of the rows again.

    Raises :class:`BudgetExceeded` when the search is about to visit
    node ``budget + 1``.
    """
    n = digraph.n
    (m,) = _requested(n, target_size)
    rows = digraph.rows
    tournament = digraph.is_tournament()
    ceiling = _ceiling(m, tournament)
    best, best_mask, visited, pruned = -1, 0, 0, 0
    # the arc-count bound hi; m-1 never cuts, and stays outside tournaments
    hi = m - 1
    # (selected, candidates, picks left, live (bit, row) pairs); the
    # include branch pops first
    stack = [(0, (1 << n) - 1, m, [(1 << v, row) for v, row in enumerate(rows)])]
    while stack:
        sel, pool, left, live = stack.pop()
        if visited >= budget:
            raise BudgetExceeded(visited + 1, budget, "node", " or more")
        visited += 1
        if left:
            union = sel | pool
            node = _settle(live, sel, pool, left, best + 1, hi)
            if node is None:
                pruned += 1
                continue
            sel, pool, left = node
            if left:
                if sel | pool != union:
                    union = sel | pool
                    live = [pair for pair in live if pair[0] & union]
                low = pool & -pool
                stack.append((sel, pool ^ low, left, live))
                stack.append((sel | low, pool ^ low, left - 1, live))
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
        engine="bb",
    )


def verify_bound(level: int) -> VerifyOutcome:
    """Exhaustively check the level's subset degree cap.

    Finds the exact maximum over subsets of size 0..(3**level - 1)//2
    of the level's tournament and compares it against the closed-form
    bound.  Each block of 3**j consecutive ids is a module whose three
    sub-blocks rotate by an automorphism.  If X, the id-smallest set
    attaining a size's maximum, met a block but missed its first vertex
    v, it would miss the first sub-block of the least block B on v that
    it meets; moving B's sub-blocks back one would give an id-smaller
    set of equal score.  So the sweep skips every such set, with the
    same value and witness.  A level past the construction limit, or
    above 3, whose tournament has more than 64 vertices, raises
    ValueError before the tournament is built.  So the level fixes the
    work, at most 2**26 subsets, within ``enumerate_max``'s default budget.
    """
    check_level(level)
    params = level_params(level)
    if params.order > _SWEEP_LIMIT:
        raise ValueError(f"level {level} has {params.order} vertices, "
                         f"the exhaustive sweep takes at most {_SWEEP_LIMIT}")
    blocks = [((1 << 3 ** j) - 1) << s for j in range(1, level + 1)
              for s in range(0, params.order, 3 ** j)]
    report = enumerate_max(ternary_tournament(level), range(params.reg_degree + 1),
                           _blocks=blocks)
    return VerifyOutcome(params.bound, report)

"""Exact maximization of subset minimum out-degree.

Two exact engines compute max over vertex subsets X (of the requested
sizes) of the minimum out-degree of the induced subdigraph:

* ``enumerate_max`` sweeps every subset of each requested size.  For
  digraphs of at most 64 vertices the masks of one size class are
  written into one ascending numpy array, built from the previous size
  class, and evaluated in chunks of ``_CHUNK`` masks, small enough for
  a chunk's scratch arrays to stay in L2.  Per vertex the kernel makes
  in-place passes over preallocated arrays: AND with the adjacency
  row, popcount, OR in a membership byte that makes non-members read
  255, and a running minimum.  Every ``_PRUNE_EVERY`` vertices it
  drops the masks whose running minimum is already below the best
  value of the chunks of the same size reduced before it; such a mask
  can neither win nor tie, so the witness does not change.  With
  threads, chunks run in waves of one chunk per thread, each wave
  pruned against the waves before it.  Larger vertex counts, and size
  profiles where the level-by-level build would cost far more than the
  requested evaluation, fall back to a pure-Python fixed-popcount
  successor loop (Gosper iteration).
* ``branch_bound_max`` proves the same maximum for one target size by
  depth-first selection over the candidate pool with sound pruning,
  within a node budget.

Both engines report a witness subset; ties are broken toward the
subset whose increasing id tuple is lexicographically smallest, and a
nonempty witness is preferred when the empty set ties (the empty set
is reported only when it is the entire searched family).
``enumerate_max`` applies the tie-break in one place: it relabels the
digraph v -> n-1-v before sweeping, so that the lexicographically
smallest witness becomes the numerically largest attaining mask, and
maps each size's winning mask back once.  Pruning keeps ties, so
results do not depend on the chunk size or the worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .construction import level_params, ternary_tournament
from .digraph import Digraph, VertexSet

#: Default ceiling on the subsets, or branch-and-bound nodes, one call may visit.
DEFAULT_BUDGET = 1 << 27

#: Masks per kernel chunk: one chunk's scratch arrays fit in L2.
_CHUNK = 1 << 16
#: Vertex passes between compactions of a chunk.  At most 8: the
#: passes in between read their membership bits from one byte.
_PRUNE_EVERY = 8


class BudgetExceeded(RuntimeError):
    """The requested family is larger than the subset budget."""

    unit = "subsets"

    def __init__(self, required: int, budget: int):
        try:
            need = str(required)
        except ValueError:  # past the interpreter's int-to-str digit limit
            need = f"at least 2**{required.bit_length() - 1}"
        super().__init__(f"search needs {need} {self.unit}, budget allows {budget}")
        self.required = required
        self.budget = budget


class NodeBudgetExceeded(BudgetExceeded):
    """Branch and bound would visit more nodes than its budget.

    The node count is not known in advance: ``required`` is the
    number of the node at which the search stopped, ``budget + 1``
    for a budget of at least zero.
    """

    unit = "nodes or more"


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exact search.

    ``by_size`` maps each searched size to (best value, witness) for
    that size alone; ``best_set``/``best_value`` aggregate over all of
    them.  ``exact`` is True iff the family was fully covered or
    soundly pruned.  ``engine`` names the engine that ran: ``blocks``,
    ``gosper`` or ``bb``.
    """

    best_set: VertexSet
    best_value: int
    nodes_visited: int
    pruned: int
    exact: bool
    elapsed: float
    engine: str
    by_size: dict[int, tuple[int, VertexSet]] = field(default_factory=dict)


@dataclass(frozen=True)
class VerifyOutcome:
    """Result of checking one level's subset degree cap.

    ``report`` is the exact sweep of the level's tournament, and
    ``passed`` says whether its maximum stays within ``bound``.  A
    family larger than the budget raises :class:`BudgetExceeded`
    instead, so every outcome carries a verdict.
    """

    level: int
    bound: int
    report: SearchReport
    passed: bool


def subset_count(n: int, sizes: Iterable[int]) -> int:
    """Number of subsets the size family contains."""
    return sum(math.comb(n, m) for m in sizes)


def fixed_popcount_masks(n: int, m: int):
    """Yield all n-bit masks of popcount m in increasing numeric order.

    Constant amortized work per mask: the next mask is computed from
    the current one with the classic carry/ripple successor.
    """
    if m == 0:
        yield 0
        return
    if m > n:
        return
    x = (1 << m) - 1
    limit = 1 << n
    while x < limit:
        yield x
        low = x & -x
        ripple = x + low
        x = ripple | (((x ^ ripple) >> 2) // low)


def _normalize_sizes(n: int, sizes) -> tuple[int, ...]:
    if isinstance(sizes, int):
        sizes = [sizes]
    out = sorted(set(int(m) for m in sizes))
    if not out:
        raise ValueError("no subset sizes requested")
    for m in out:
        if not 0 <= m <= n:
            raise ValueError(f"subset size {m} out of range for n={n}")
    return tuple(out)


def _reverse(mask: int, n: int) -> int:
    """``mask`` under the relabel v -> n-1-v of an n-vertex digraph."""
    return int(format(mask, f"0{n}b")[::-1], 2)


def _eval_chunk(masks: np.ndarray, adj: np.ndarray, n: int, bound: int,
                buffers: tuple[np.ndarray, ...]) -> tuple[int, int]:
    """(best value, largest mask attaining it) for one chunk.

    Every ``_PRUNE_EVERY`` vertex passes the masks whose running
    minimum is already below ``bound`` are dropped: the minimum only
    falls, so a dropped mask can neither beat nor tie the bound, while
    every tie survives.  The result is exact when some mask of the
    chunk reaches ``bound``; otherwise it is below ``bound``, and
    (-1, 0) when every mask was dropped.
    """
    kept, word, plane, member, deg, low, keep = (b[:len(masks)] for b in buffers)
    low.fill(255)
    for v in range(n):
        j = v % _PRUNE_EVERY
        if j == 0:
            if v and bound > 0:
                np.greater_equal(low, bound, out=keep)
                c = int(np.count_nonzero(keep))
                if c == 0:
                    return -1, 0
                if c < len(masks):
                    masks = np.compress(keep, masks, out=kept[:c])
                    low = np.compress(keep, low, out=low[:c])
                    word, plane, member, deg, keep = (
                        b[:c] for b in (word, plane, member, deg, keep))
            # bits v..v+7 of every mask, as one byte
            np.right_shift(masks, v, out=word)
            np.copyto(plane, word, casting="unsafe")
        # member reads 0, non-member 255, so OR-ing it in hides non-members
        np.right_shift(plane, j, out=member)
        np.bitwise_and(member, 1, out=member)
        np.subtract(member, 1, out=member)
        np.bitwise_and(masks, adj[v], out=word)
        np.bitwise_count(word, out=deg)
        np.bitwise_or(deg, member, out=deg)
        np.minimum(low, deg, out=low)
    vmax = int(low.max())
    return vmax, int(masks[low == vmax].max())


def _chunk_buffers(dtype) -> tuple[np.ndarray, ...]:
    """Scratch arrays for one ``_eval_chunk`` call at a time."""
    return (np.empty(_CHUNK, dtype), np.empty(_CHUNK, dtype),
            *(np.empty(_CHUNK, np.uint8) for _ in range(4)),
            np.empty(_CHUNK, bool))


def _best_of_class(cur: np.ndarray, adj: np.ndarray, n: int, executor,
                   slots: list[tuple[np.ndarray, ...]]) -> tuple[int, int]:
    """(best value, largest mask attaining it) over one size class.

    Chunks run in waves of ``len(slots)``; each wave is pruned against
    the best value of the waves before it.
    """
    best = (-1, 0)
    wave = _CHUNK * len(slots)
    for start in range(0, len(cur), wave):
        chunks = [cur[lo:lo + _CHUNK]
                  for lo in range(start, min(start + wave, len(cur)), _CHUNK)]
        bound = best[0]
        if executor is not None and len(chunks) > 1:
            results = list(executor.map(
                lambda c, buf: _eval_chunk(c, adj, n, bound, buf), chunks, slots))
        else:
            results = [_eval_chunk(c, adj, n, bound, buf)
                       for c, buf in zip(chunks, slots)]
        best = max(best, *results)
    return best


def _blocks_by_size(digraph: Digraph, sizes: tuple[int, ...],
                    threads: int) -> dict[int, tuple[int, int]]:
    """(best value, largest mask attaining it) per size, vectorized."""
    n = digraph.n
    dtype = np.uint32 if n <= 32 else np.uint64
    adj = np.array(digraph.rows, dtype=dtype)
    wanted = set(sizes)
    out: dict[int, tuple[int, int]] = {}
    if 0 in wanted:
        out[0] = (0, 0)
    slots = [_chunk_buffers(dtype) for _ in range(max(threads, 1))]
    prev = np.zeros(1, dtype=dtype)  # the single size-0 mask
    executor = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for m in range(1, max(sizes) + 1):
            # masks with highest bit h are the size-(m-1) masks below h, plus h
            cur = np.empty(math.comb(n, m), dtype=dtype)
            lo = 0
            for h in range(m - 1, n):
                c = math.comb(h, m - 1)
                np.bitwise_or(prev[:c], dtype(1 << h), out=cur[lo:lo + c])
                lo += c
            if m in wanted:
                out[m] = _best_of_class(cur, adj, n, executor, slots)
            prev = cur
    finally:
        if executor is not None:
            executor.shutdown()
    return out


def _gosper_by_size(digraph: Digraph,
                    sizes: tuple[int, ...]) -> dict[int, tuple[int, int]]:
    """(best value, largest mask attaining it) per size, for any n."""
    n = digraph.n
    rows = digraph.rows
    out: dict[int, tuple[int, int]] = {}
    for m in sizes:
        if m == 0:
            out[0] = (0, 0)
            continue
        best_v, best_mask = -1, 0
        for mask in fixed_popcount_masks(n, m):
            rest = mask
            d = n
            while rest:
                low = rest & -rest
                c = (rows[low.bit_length() - 1] & mask).bit_count()
                if c < d:
                    d = c
                rest ^= low
            if d >= best_v:  # masks ascend, so the last attainer is the largest
                best_v, best_mask = d, mask
        out[m] = (best_v, best_mask)
    return out


def _combine_sizes(by_size: dict[int, tuple[int, VertexSet]]) -> tuple[int, VertexSet]:
    best_value = max(v for v, _ in by_size.values())
    witnesses = [w for v, w in by_size.values() if v == best_value]
    nonempty = [w.ids() for w in witnesses if len(w)]
    if nonempty:
        ids = min(nonempty)
        owner = witnesses[0].owner_n
        return best_value, VertexSet.from_ids(ids, owner)
    return best_value, witnesses[0]


def enumerate_max(digraph: Digraph, sizes, budget: int = DEFAULT_BUDGET,
                  threads: int = 1, engine: str = "auto") -> SearchReport:
    """Exhaustive maximum of min-out-degree over the given subset sizes.

    ``sizes`` is a single size or an iterable of sizes.  Refuses with
    :class:`BudgetExceeded` when the family holds more than ``budget``
    subsets (the estimate is computed before any enumeration).
    """
    t0 = time.perf_counter()
    n = digraph.n
    sizes = _normalize_sizes(n, sizes)
    required = subset_count(n, sizes)
    if required > budget:
        raise BudgetExceeded(required, budget)
    if engine == "auto":
        build_cost = sum(math.comb(n, i) for i in range(max(sizes) + 1))
        if n <= 64 and build_cost <= max(4 * required, 1 << 22):
            engine = "blocks"
        else:
            engine = "gosper"
    # under v -> n-1-v the id-lexicographically smallest witness is the
    # numerically largest attaining mask, which both engines keep
    flipped = Digraph(n, [_reverse(row, n) for row in reversed(digraph.rows)])
    if engine == "blocks":
        if n > 64:
            raise ValueError("blocks engine requires at most 64 vertices")
        raw = _blocks_by_size(flipped, sizes, threads)
    elif engine == "gosper":
        raw = _gosper_by_size(flipped, sizes)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    by_size = {m: (value, VertexSet(_reverse(mask, n), n))
               for m, (value, mask) in raw.items()}
    best_value, best_set = _combine_sizes(by_size)
    return SearchReport(
        best_set=best_set,
        best_value=best_value,
        nodes_visited=required,
        pruned=0,
        exact=True,
        elapsed=time.perf_counter() - t0,
        engine=engine,
        by_size=by_size,
    )


def branch_bound_max(digraph: Digraph, target_size: int, prune: bool = True,
                     budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Exact maximum over subsets of exactly ``target_size`` vertices.

    Depth-first selection in increasing id order, on an explicit stack
    so that depth is not limited by the interpreter's recursion limit.
    Pruning rules, all sound for the maximum value:

    * ceiling: a tournament's size-m subset has a vertex beaten at
      least (m-1)//2 times inside it, so the search stops once the
      running best reaches floor((m-1)/2) (m-1 for general digraphs);
    * potential: a vertex's out-degree into selected-plus-candidates
      bounds its final in-set out-degree, so a branch dies when any
      selected vertex cannot reach best+1;
    * peeling: candidates whose potential cannot reach best+1 are
      dropped, iterated to a fixpoint.

    With ``prune=False`` only the structural feasibility check remains
    and every size-m subset is visited; the best value is unchanged.
    Raises :class:`NodeBudgetExceeded` when the search is about to
    visit node ``budget + 1``.
    """
    n = digraph.n
    if not 0 <= target_size <= n:
        raise ValueError(f"target size {target_size} out of range for n={n}")
    t0 = time.perf_counter()
    rows = digraph.rows
    ceiling = (target_size - 1) // 2 if digraph.is_tournament() else target_size - 1
    best, best_mask, visited, pruned = -1, 0, 0, 0
    # (selected, candidates, selected count); the include branch pops first
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        sel, pool, nsel = stack.pop()
        if visited >= budget:
            raise NodeBudgetExceeded(visited + 1, budget)
        visited += 1
        if nsel == target_size:
            rest, val = sel, n if sel else 0  # the empty set scores 0
            while rest:
                low = rest & -rest
                d = (rows[low.bit_length() - 1] & sel).bit_count()
                if d < val:
                    val = d
                rest ^= low
            if val > best:
                best, best_mask = val, sel
                if val >= ceiling:
                    break
            continue
        if prune:
            # peel unreachable candidates to a fixpoint
            while True:
                union = sel | pool
                dropped = False
                rest = pool
                while rest:
                    low = rest & -rest
                    if (rows[low.bit_length() - 1] & union).bit_count() <= best:
                        pool ^= low
                        dropped = True
                    rest ^= low
                if not dropped:
                    break
            union = sel | pool
            rest = sel
            while rest:
                low = rest & -rest
                if (rows[low.bit_length() - 1] & union).bit_count() <= best:
                    break
                rest ^= low
            if rest:
                pruned += 1
                continue
        if pool.bit_count() < target_size - nsel:
            pruned += 1
            continue
        low = pool & -pool
        stack.append((sel, pool ^ low, nsel))
        stack.append((sel | low, pool ^ low, nsel + 1))
    best_set = VertexSet(best_mask, n)
    return SearchReport(
        best_set=best_set,
        best_value=best,
        nodes_visited=visited,
        pruned=pruned,
        exact=True,
        elapsed=time.perf_counter() - t0,
        engine="bb",
        by_size={target_size: (best, best_set)},
    )


def verify_bound(level: int, budget: int = DEFAULT_BUDGET,
                 threads: int = 1) -> VerifyOutcome:
    """Exhaustively check the level's subset degree cap.

    Sweeps every subset of size 0..(3**level - 1)//2 of the level's
    tournament and compares the exact maximum against the closed-form
    bound.  A family larger than ``budget`` raises
    :class:`BudgetExceeded` before the tournament is built.
    """
    params = level_params(level)
    # the sizes up to (order-1)/2 hold half of an odd-order set's subsets
    required = 1 << (params.order - 1)
    if required > budget:
        raise BudgetExceeded(required, budget)
    report = enumerate_max(ternary_tournament(level), range(params.reg_degree + 1),
                           budget=budget, threads=threads)
    return VerifyOutcome(level, params.bound, report,
                         report.best_value <= params.bound)

"""Independent reference computations for the benchmark's output checks.

Nothing here imports trisplit: every expected value the benchmark
compares a command's output against is computed from the definitions
below, which `test_oracles.py` checks against brute force at desk scale.

Level k of the family has vertices 0..3**k-1.  Its three top-level
blocks are the id ranges of length 3**(k-1), every arc goes from a
block to the next one cyclically (A->B, B->C, C->A), and each block is
a copy of level k-1.  The punctured tournament drops vertex 0 and
shifts every other id down by one.
"""

from __future__ import annotations

import random

_MASK64 = (1 << 64) - 1


# -- the family, by its block structure ---------------------------------

def level_cap(level: int) -> int:
    """((3**k - 1)/2 - k)/2, the subset degree cap the paper proves."""
    return ((3 ** level - 1) // 2 - level) // 2


def trit_arc(u: int, v: int, level: int) -> bool:
    """Closed-form arc rule: at the most significant base-3 digit where
    u and v differ, u->v iff v's digit is u's plus one, mod 3."""
    power = 3 ** (level - 1)
    while power and u // power % 3 == v // power % 3:
        power //= 3
    return bool(power) and (v // power - u // power) % 3 == 1


def _best_over_parts(prev_a: list[int], prev: list[int], third: int,
                     ) -> list[int]:
    """One step of the block recurrence.

    ``prev_a`` holds the best min out-degree per size inside block A
    and ``prev`` inside blocks B and C.  A vertex in a nonempty part i
    has in-set out-degree (its out-degree inside part i) plus the whole
    next part, and the three parts are chosen independently, so the
    best value at size a+b+c is the max over (a, b, c) of the min over
    nonempty parts of (best of part i) + (size of part i+1).
    """
    out = [0] * (len(prev_a) + 2 * third)
    for a in range(len(prev_a)):
        for b in range(third + 1):
            for c in range(third + 1):
                sizes = (a, b, c)
                bests = (prev_a[a], prev[b], prev[c])
                value = min((bests[i] + sizes[(i + 1) % 3]
                             for i in range(3) if sizes[i]), default=0)
                if value > out[a + b + c]:
                    out[a + b + c] = value
    return out


def level_maxima(level: int) -> list[int]:
    """F_k(m): the max min out-degree over size-m subsets of level k."""
    best = [0, 0]
    for k in range(1, level + 1):
        best = _best_over_parts(best, best, 3 ** (k - 1))
    return best


def punctured_maxima(level: int) -> list[int]:
    """G_k(m): as ``level_maxima`` on the punctured tournament.

    Vertex 0 sits in block A at every level, so part A ranges over the
    punctured level k-1 and parts B and C over the full one.
    """
    full, punct = [0, 0], [0]
    for k in range(1, level + 1):
        third = 3 ** (k - 1)
        punct = _best_over_parts(punct, full, third)
        full = _best_over_parts(full, full, third)
    return punct


def block_score(ids, level: int) -> int:
    """Min out-degree of the level-k subdigraph induced by ``ids``.

    Uses the block identity: the minimum is the min over nonempty
    parts of (that part's own minimum) + (size of the next part).
    The empty set scores 0.
    """
    if level == 0 or not ids:
        return 0
    third = 3 ** (level - 1)
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    for v in ids:
        parts[v // third].append(v % third)
    return min(block_score(p, level - 1) + len(parts[(i + 1) % 3])
               for i, p in enumerate(parts) if p)


def punctured_score(ids, level: int) -> int:
    """``block_score`` for ids of the punctured tournament."""
    return block_score([v + 1 for v in ids], level)


def top_certificate_kind(ids, level: int) -> str:
    """The argument shape the paper's induction applies first to X.

    An empty part gives ``empty_part``; otherwise two cyclically
    consecutive parts of size at most t = (3**(k-1) - 1)/2 give
    ``two_small``, and failing that two consecutive parts above t
    give ``two_large``.  Some pair always qualifies, by pigeonhole.
    """
    if not ids:
        return "base"
    third = 3 ** (level - 1)
    t = (third - 1) // 2
    sizes = [0, 0, 0]
    for v in ids:
        sizes[v // third] += 1
    if 0 in sizes:
        return "empty_part"
    if any(sizes[r] <= t and sizes[(r + 1) % 3] <= t for r in range(3)):
        return "two_small"
    return "two_large"


# -- subsets of level k drawn from the benchmark's own generator ---------

def draw_uniform(rng: random.Random, level: int, size: int) -> list[int]:
    return sorted(rng.sample(range(3 ** level), size))


def draw_by_parts(rng: random.Random, level: int,
                  sizes: tuple[int, int, int]) -> list[int]:
    """Uniform within each top-level block, with the given part sizes."""
    third = 3 ** (level - 1)
    ids: list[int] = []
    for block, count in enumerate(sizes):
        ids += (block * third + v for v in rng.sample(range(third), count))
    return sorted(ids)


def skewed_part_sizes(rng: random.Random, level: int, kind: str,
                      ) -> tuple[int, int, int]:
    """Part sizes of a half-size subset whose first argument shape is
    ``kind``, rotated by a random offset across the three blocks."""
    third = 3 ** (level - 1)
    t = (third - 1) // 2
    size = (3 ** level - 1) // 2  # = 3t + 1
    if kind == "empty_part":
        x = rng.randint(size - third, third)
        sizes = [x, 0, size - x]
    elif kind == "two_small":
        a = rng.randint(t // 2, t)
        b = rng.randint(max(t // 2, size - third - a), t)
        sizes = [a, b, size - a - b]
    elif kind == "two_large":
        c = rng.randint(1, t - 1)
        a = rng.randint(max(t + 1, size - c - third), min(third, size - c - t - 1))
        sizes = [a, size - c - a, c]
    else:
        raise ValueError(f"unknown argument shape {kind!r}")
    r = rng.randrange(3)
    return tuple(sizes[r:] + sizes[:r])


# -- arbitrary tournaments ----------------------------------------------

def random_tournament(n: int, seed: int) -> list[int]:
    """Rows of a uniformly random tournament: bit v of row u is u->v."""
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.getrandbits(1):
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
    return rows


def rows_min_out_degree(rows: list[int], ids) -> int:
    """Min out-degree of the subdigraph induced by ``ids``; 0 if empty."""
    mask = 0
    for v in ids:
        mask |= 1 << v
    return min(((rows[v] & mask).bit_count() for v in ids), default=0)


# -- balanced halves, rebuilt from a trial seed --------------------------

def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(base_seed: int, index: int) -> int:
    """Seed of split trial ``index``: mix64(mix64(base) + index)."""
    return _mix64(_mix64(base_seed) + index)


def balanced_half(n: int, seed: int) -> list[int]:
    """The first n/2 ids of a seeded partial Fisher-Yates shuffle.

    The stream is splitmix64: the state walks by 0x9E3779B97F4A7C15
    and each draw below a bound is mix64(state) mod bound.
    """
    state = seed & _MASK64
    ids = list(range(n))
    for i in range(n // 2):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        j = i + _mix64(state) % (n - i)
        ids[i], ids[j] = ids[j], ids[i]
    return sorted(ids[:n // 2])

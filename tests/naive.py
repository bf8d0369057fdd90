"""Slow reference implementations used only as test oracles.

Everything here works on plain arc sets (frozensets of (u, v) pairs),
deliberately sharing no code with the package's bitset fast paths.
"""

import re
from itertools import combinations


def arcs_of(digraph):
    """Arc set of a package Digraph, read bit by bit from its rows."""
    return frozenset((u, v) for u, row in enumerate(digraph.rows)
                     for v in range(digraph.n) if row >> v & 1)


def naive_out_degree(arcs, subset, v):
    return sum(1 for w in subset if w != v and (v, w) in arcs)


def naive_min_out_degree(arcs, subset):
    """Minimum out-degree of the sub-digraph induced on ``subset``."""
    if not subset:
        return 0
    return min(naive_out_degree(arcs, subset, v) for v in subset)


def naive_induced_arcs(arcs, subset):
    """Arc set of the induced sub-digraph after sorted-order relabeling."""
    order = sorted(subset)
    pos = {v: i for i, v in enumerate(order)}
    return frozenset((pos[u], pos[v]) for (u, v) in arcs
                     if u in subset and v in subset)


def naive_is_tournament(arcs, n):
    for u in range(n):
        for v in range(u + 1, n):
            if ((u, v) in arcs) + ((v, u) in arcs) != 1:
                return False
    return all((v, v) not in arcs for v in range(n))


def naive_max_over_sizes(arcs, n, sizes):
    """(max value, witness) over all subsets of the given sizes.

    Mirrors the package's documented tie-break: per size class the
    id-tuple lexicographically smallest attainer, then across size
    classes the max value with the tuple-smallest witness, preferring
    a nonempty witness whenever one attains the max.
    """
    per_size = []
    for m in sorted(set(sizes)):
        scored = [(naive_min_out_degree(arcs, set(c)), c)
                  for c in combinations(range(n), m)]
        best = max(v for v, _ in scored)
        witness = min(c for v, c in scored if v == best)
        per_size.append((best, witness))
    best_v = max(v for v, _ in per_size)
    witnesses = [w for v, w in per_size if v == best_v]
    nonempty = [w for w in witnesses if w]
    return best_v, (min(nonempty) if nonempty else witnesses[0])


def random_digraph(rng, n, arc_prob_num=1, arc_prob_den=2):
    """Arc set of a random digraph drawn with the package generator."""
    arcs = set()
    for u in range(n):
        for v in range(n):
            if u != v and rng.next_below(arc_prob_den) < arc_prob_num:
                arcs.add((u, v))
    return frozenset(arcs)


def random_tournament(rng, n):
    arcs = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.next_below(2):
                arcs.add((u, v))
            else:
                arcs.add((v, u))
    return frozenset(arcs)


def naive_read_fault(text):
    """The message the text format's reader must raise for ``text``, or
    None when it is valid: a header line holding the vertex count n in
    ASCII digits, then n lines of n characters from {0,1} with a 0 on
    the diagonal.  The first faulty row decides; within a row a wrong
    length comes before a bad character, and that before a self-loop.
    """
    if not text.endswith("\n"):
        return "missing final newline"
    header, *rows = text.split("\n")[:-1]
    header = header.strip()
    if not header or any(c not in "0123456789" for c in header):
        return f"malformed vertex count {header!r}"
    n = int(header)
    if len(rows) != n:
        return f"expected {n} rows, got {len(rows)}"
    for i, row in enumerate(rows):
        if len(row) != n:
            return f"row {i} has length {len(row)}, expected {n}"
        if any(c not in "01" for c in row):
            return f"row {i} contains characters other than 0/1"
        if row[i] == "1":
            return f"self-loop bit set at vertex {i}"
    return None


def naive_parse_ids(text):
    """The ids ``certify --set`` must read from ``text``, or the message
    it must refuse it with: comma-separated tokens, each an optional "-"
    and ASCII digits between blanks (what a ``\\s`` pattern matches);
    blank tokens are skipped.  The first malformed token decides; with
    none, the first id, in order of first appearance, that repeats.
    """
    ids = []
    for token in re.split(",", text):
        if re.fullmatch(r"\s*", token):
            continue
        match = re.fullmatch(r"\s*(-?[0-9]+)\s*", token)
        if match is None:
            return "malformed vertex id " + repr(re.sub(r"^\s+|\s+\Z", "", token))
        ids.append(int(match.group(1)))
    repeated = [v for v in ids if ids.count(v) > 1]
    return f"vertex {repeated[0]} listed twice" if repeated else ids

"""Brute-force checks of the benchmark's oracles at desk scale.

Run with ``python3 -m pytest bench/test_oracles.py``.  The brute force
builds each tournament from the closed-form trit rule
(``oracles.trit_arc``), which shares no code with the block recurrence.
"""

from __future__ import annotations

import itertools
import random

import pytest

import oracles


def trit_rows(level: int) -> list[int]:
    n = 3 ** level
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if oracles.trit_arc(u, v, level):
                rows[u] |= 1 << v
    return rows


def brute_maxima(rows: list[int], max_size: int) -> list[int]:
    n = len(rows)
    return [max(oracles.rows_min_out_degree(rows, ids)
                for ids in itertools.combinations(range(n), m))
            for m in range(max_size + 1)]


def punctured_rows(level: int) -> list[int]:
    return [row >> 1 for row in trit_rows(level)[1:]]


@pytest.mark.parametrize("level", [1, 2])
def test_level_maxima_match_brute_force(level):
    assert oracles.level_maxima(level) == brute_maxima(trit_rows(level), 3 ** level)


def test_level_three_maxima_match_brute_force_for_small_sizes():
    assert oracles.level_maxima(3)[:5] == brute_maxima(trit_rows(3), 4)


@pytest.mark.parametrize("level", [1, 2])
def test_punctured_maxima_match_brute_force(level):
    rows = punctured_rows(level)
    assert oracles.punctured_maxima(level) == brute_maxima(rows, len(rows))


def test_punctured_level_three_small_sizes_and_half():
    maxima = oracles.punctured_maxima(3)
    assert len(maxima) == 27
    assert maxima[:5] == brute_maxima(punctured_rows(3), 4)
    # the cap is attained on the punctured half (the paper's sharpness)
    assert maxima[13] == oracles.level_cap(3) == 5


def test_level_maxima_never_exceed_the_cap_on_halves():
    for level in range(1, 5):
        half = (3 ** level - 1) // 2
        assert max(oracles.level_maxima(level)[:half + 1]) == oracles.level_cap(level)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_block_score_matches_direct_degrees(level):
    rows = trit_rows(level)
    rng = random.Random(level)
    n = 3 ** level
    for _ in range(300):
        ids = sorted(rng.sample(range(n), rng.randint(0, n)))
        assert oracles.block_score(ids, level) == oracles.rows_min_out_degree(rows, ids)


def test_punctured_score_matches_direct_degrees():
    rows = punctured_rows(3)
    rng = random.Random(7)
    for _ in range(300):
        ids = sorted(rng.sample(range(26), rng.randint(0, 26)))
        assert oracles.punctured_score(ids, 3) == oracles.rows_min_out_degree(rows, ids)


@pytest.mark.parametrize("level", [3, 5, 9])
@pytest.mark.parametrize("kind", ["empty_part", "two_small", "two_large"])
def test_skewed_draws_have_the_requested_shape(level, kind):
    rng = random.Random(level)
    third = 3 ** (level - 1)
    for _ in range(50):
        sizes = oracles.skewed_part_sizes(rng, level, kind)
        assert sum(sizes) == (3 ** level - 1) // 2
        assert all(0 <= x <= third for x in sizes)
    ids = oracles.draw_by_parts(rng, level, sizes)
    assert len(set(ids)) == len(ids) == sum(sizes)
    assert [sum(1 for v in ids if v // third == b) for b in range(3)] == list(sizes)
    assert oracles.top_certificate_kind(ids, level) == kind


def test_random_tournament_is_a_seeded_tournament():
    rows = oracles.random_tournament(26, 3)
    assert rows == oracles.random_tournament(26, 3)
    assert rows != oracles.random_tournament(26, 4)
    for u, v in itertools.combinations(range(26), 2):
        assert (rows[u] >> v & 1) + (rows[v] >> u & 1) == 1
    assert all(not row >> u & 1 for u, row in enumerate(rows))


def test_splitmix_stream_matches_the_reference_vector():
    # first splitmix64 output for seed 0
    assert oracles._mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF


def test_balanced_half_is_a_seeded_half():
    half = oracles.balanced_half(2186, 11)
    assert half == oracles.balanced_half(2186, 11)
    assert half != oracles.balanced_half(2186, 12)
    assert len(set(half)) == 1093 and all(0 <= v < 2186 for v in half)
    assert oracles.trial_seed(5, 0) != oracles.trial_seed(5, 1)

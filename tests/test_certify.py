"""Recursive bound certificates and the three-way min identity."""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisplit import (
    DimensionError,
    VertexSet,
    certify_bound,
    level_params,
    min_identity_check,
    partition_parts,
    ternary_tournament,
)
from trisplit.certify import (
    BASE,
    EMPTY_PART,
    TWO_LARGE,
    TWO_SMALL,
    actual_min_out_degree,
)

from naive import arcs_of, naive_min_out_degree


def vs(ids, k):
    return VertexSet.from_ids(ids, 3 ** k)


def capped_subsets(k):
    """Strategy: valid certificate inputs at the given level."""
    order = 3 ** k
    cap = (order - 1) // 2
    return st.lists(
        st.integers(min_value=0, max_value=order - 1),
        max_size=cap, unique=True,
    ).map(lambda ids: VertexSet.from_ids(ids, order))


class TestPartition:
    def test_blocks_by_most_significant_trit(self):
        a, b, c = partition_parts(vs([0, 3, 6], 2), 2)
        assert (a.ids(), b.ids(), c.ids()) == ((0,), (3,), (6,))

    def test_first_block_only(self):
        a, b, c = partition_parts(vs([0, 1, 2], 2), 2)
        assert a.ids() == (0, 1, 2) and len(b) == 0 and len(c) == 0

    def test_full_vertex_set(self):
        a, b, c = partition_parts(VertexSet((1 << 9) - 1, 9), 2)
        assert a.ids() == (0, 1, 2)
        assert b.ids() == (3, 4, 5)
        assert c.ids() == (6, 7, 8)

    def test_union_disjoint(self):
        x = vs([0, 4, 8, 2, 5], 2)
        a, b, c = partition_parts(x, 2)
        assert a.bits | b.bits | c.bits == x.bits
        assert a.bits & b.bits == b.bits & c.bits == a.bits & c.bits == 0

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            partition_parts(VertexSet(1, 1), 0)

    def test_owner_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            partition_parts(VertexSet(0b111, 3), 2)


@pytest.mark.parametrize("call", [
    lambda x: partition_parts(x, 2),
    lambda x: certify_bound(2, x),
    lambda x: actual_min_out_degree(2, x),
], ids=["partition_parts", "certify_bound", "actual_min_out_degree"])
def test_subset_order_mismatch_has_one_message(call):
    with pytest.raises(DimensionError, match=r"^subset indexes 8 vertices, level 2 has 9$"):
        call(VertexSet(0, 8))


class TestCertifyExamples:
    def test_empty_at_level_one(self):
        bound, cert = certify_bound(1, VertexSet(0, 3))
        assert bound == 0 and cert.kind == BASE
        assert cert.replay() == 0

    def test_one_block_uses_empty_part(self):
        bound, cert = certify_bound(2, vs([0, 1, 2], 2))
        assert bound == 1
        assert cert.kind == EMPTY_PART
        assert actual_min_out_degree(2, vs([0, 1, 2], 2)) == 1

    def test_mixed_subset_sound_and_capped(self):
        x = vs([0, 3, 6, 7], 2)
        bound, cert = certify_bound(2, x)
        assert bound <= level_params(2).bound == 1
        assert actual_min_out_degree(2, x) <= bound
        assert cert.replay() == bound

    def test_two_small_at_level_two(self):
        bound, cert = certify_bound(2, vs([0, 3, 6], 2))
        assert cert.kind == TWO_SMALL
        assert cert.rotation == 0
        assert bound == cert.child.claimed_bound + 1

    def test_two_large_at_level_three(self):
        # parts of sizes (5, 5, 3): both above (3^2 - 1)/2 = 4
        ids = [0, 1, 2, 3, 4, 9, 10, 11, 12, 13, 18, 19, 20]
        bound, cert = certify_bound(3, vs(ids, 3))
        assert cert.kind == TWO_LARGE
        assert cert.rotation == 0
        assert len(cert.child.subset) == 4
        assert set(cert.child.subset.ids()) <= {0, 1, 2, 3, 4}  # local role-B ids
        assert cert.replay() == bound
        assert actual_min_out_degree(3, vs(ids, 3)) <= bound <= level_params(3).bound

    def test_two_large_replay_checks_the_chosen_subset(self):
        # the child certifies S; S must be t ids inside the second part
        ids = [0, 1, 2, 3, 4, 9, 10, 11, 12, 13, 18, 19, 20]
        _, cert = certify_bound(3, vs(ids, 3))
        for bad in ([5, 6, 7, 8], [0, 1, 2], [1, 2, 3, 5]):
            _, child = certify_bound(2, vs(bad, 2))
            with pytest.raises(ValueError):
                replace(cert, child=child).replay()

    def test_empty_part_rotation_choice(self):
        # parts (empty, nonempty, nonempty): rotation 2 is the smallest
        # that puts the empty block in the middle role behind a nonempty
        # first role, and empty_part wins over two_small
        bound, cert = certify_bound(2, vs([3, 6], 2))
        assert (cert.kind, cert.rotation, bound) == (EMPTY_PART, 2, 1)
        _, cert2 = certify_bound(2, vs([3], 2))
        assert (cert2.kind, cert2.rotation) == (EMPTY_PART, 1)
        assert cert2.replay() == cert2.claimed_bound

    def test_renders_are_frozen(self):
        # every node's kind, rotation, part sizes and bound, over all shapes
        rng = random.Random(20261019)
        digest, kinds = hashlib.sha256(), set()
        for k in range(1, 7):
            order = 3 ** k
            for _ in range(50):
                ids = rng.sample(range(order), rng.randint(0, (order - 1) // 2))
                _, cert = certify_bound(k, vs(ids, k))
                kinds.add(cert.kind)
                digest.update(cert.render().encode() + b"\n\n")
        assert kinds == {BASE, EMPTY_PART, TWO_SMALL, TWO_LARGE}
        assert digest.hexdigest() == (
            "33548a41f6246f1c033e27061150fe1e061a52ae98d91f34a69052f924d2dc7c")

    def test_deterministic(self):
        x = vs([0, 3, 6, 7], 2)
        assert certify_bound(2, x) == certify_bound(2, x)

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            certify_bound(1, vs([0, 1], 1))

    def test_owner_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            certify_bound(2, VertexSet(0b111, 3))

    def test_render_mentions_each_node(self):
        _, cert = certify_bound(2, vs([0, 3, 6], 2))
        text = cert.render()
        lines = text.splitlines()
        assert lines[0].startswith(TWO_SMALL)
        assert any(line.strip().startswith((BASE, EMPTY_PART)) for line in lines[1:])


def cert_of(ids, k):
    return certify_bound(k, vs(ids, k))[1]


def malformed():
    """One certificate per replay refusal, each consistent but for it.

    At level 2 the parts are the blocks {0,1,2}, {3,4,5}, {6,7,8} and
    t = 1; a forged node's claimed bound is what replay would compute
    if the refusal were missing.
    """
    small = cert_of([0, 3, 6], 2)  # two_small r=0, child {0}, bound 0 + 1
    large = cert_of([0, 1, 2, 3, 4, 9, 10, 11, 12, 13, 18, 19, 20], 3)
    one = cert_of([0], 1)  # bound 0
    return {
        "base_above_level_zero": replace(small, kind=BASE, claimed_bound=0, child=None),
        "shape_below_level_one": replace(cert_of([], 0), kind=EMPTY_PART, rotation=0),
        "unknown_kind": replace(small, kind="three_small"),
        "bad_rotation": replace(small, rotation=3),
        # parts (0, 1, 0): rotation 0 leaves the first role empty
        "empty_part_hypotheses": replace(cert_of([3], 2), rotation=0),
        # parts (1, 1, 0) and (2, 2, 0): sizes fit, but a part is empty
        "two_small_empty_part": replace(
            cert_of([0, 3], 2), kind=TWO_SMALL, rotation=0, child=one, claimed_bound=1),
        "two_large_empty_part": replace(
            cert_of([0, 1, 3, 4], 2), kind=TWO_LARGE, rotation=0, child=one, claimed_bound=1),
        # parts (1, 2, 1) at rotation 0: one small part, one large
        "two_small_hypotheses": replace(
            cert_of([0, 3, 4, 6], 2), rotation=0, child=one, claimed_bound=0 + 2),
        "two_large_hypotheses": replace(
            cert_of([0, 3, 4, 6], 2), kind=TWO_LARGE, rotation=0, child=one,
            claimed_bound=0 + (2 - 1) + 1),
        "missing_child": replace(small, child=None),
        # a leaf's bound takes nothing from a child, so a forged one replays unchanged
        "base_with_child": replace(cert_of([], 1), child=cert_of([], 0)),
        "empty_part_with_child": replace(one, child=cert_of([], 0)),
        # the parent refuses the child's level before the child checks its own order
        "child_at_wrong_level": replace(
            small, child=replace(small.child, kind=BASE, level=0, rotation=None)),
        "two_small_child_not_first_part": replace(small, child=cert_of([1], 1)),
        "two_large_child_not_in_second_part": replace(large, child=cert_of([1, 2, 3, 5], 2)),
        "claimed_bound": replace(small, claimed_bound=2),
    }


@pytest.mark.parametrize("name", sorted(malformed()))
def test_replay_refuses(name):
    with pytest.raises(ValueError):
        malformed()[name].replay()


class TestCertifyQuantified:
    def test_exhaustive_level_two(self):
        t2 = ternary_tournament(2)
        arcs = arcs_of(t2)
        for bits in range(1 << 9):
            x = VertexSet(bits, 9)
            if len(x) > 4:
                continue
            bound, cert = certify_bound(2, x)
            actual = naive_min_out_degree(arcs, set(x.ids()))
            assert actual <= bound <= 1
            assert cert.replay() == bound

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda k: st.tuples(st.just(k), capped_subsets(k))))
    def test_random_sound_capped_replayable(self, kx):
        k, x = kx
        bound, cert = certify_bound(k, x)
        assert actual_min_out_degree(k, x) <= bound <= level_params(k).bound
        assert cert.replay() == bound
        assert cert.subset == x and cert.level == k

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda k: st.tuples(st.just(k), capped_subsets(k))))
    def test_replay_rejects_tampered_bound(self, kx):
        k, x = kx
        bound, cert = certify_bound(k, x)
        cls = type(cert)
        bad = cls(
            kind=cert.kind, level=cert.level, subset=cert.subset,
            claimed_bound=bound + 1, rotation=cert.rotation,
            child=cert.child,
        )
        with pytest.raises(ValueError):
            bad.replay()


class TestMinIdentity:
    def test_full_vertex_set_level_two(self):
        assert min_identity_check(2, VertexSet((1 << 9) - 1, 9))

    def test_singleton_parts(self):
        assert min_identity_check(2, vs([0, 3, 6], 2))

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError):
            min_identity_check(2, vs([0, 1], 2))

    def test_exhaustive_level_two(self):
        for bits in range(1 << 9):
            x = VertexSet(bits, 9)
            parts = partition_parts(x, 2)
            if all(len(p) for p in parts):
                assert min_identity_check(2, x)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=4).flatmap(
        lambda k: st.tuples(
            st.just(k),
            *[st.lists(st.integers(min_value=0, max_value=3 ** (k - 1) - 1),
                       min_size=1, unique=True) for _ in range(3)])))
    def test_random_nonempty_parts(self, args):
        k, a, b, c = args
        third = 3 ** (k - 1)
        ids = a + [v + third for v in b] + [v + 2 * third for v in c]
        assert min_identity_check(k, vs(ids, k))


class TestStructuralScorer:
    """``actual_min_out_degree`` against the dense tournament."""

    @staticmethod
    def dense(k, x):
        return ternary_tournament(k).min_out_degree(x)

    def test_seeded_random_subsets(self):
        rng = random.Random(20261018)
        for k in range(7):
            order = 3 ** k
            for _ in range(40):
                x = vs(rng.sample(range(order), rng.randint(0, order)), k)
                assert actual_min_out_degree(k, x) == self.dense(k, x)

    def test_empty_singletons_and_full(self):
        for k in range(7):
            order = 3 ** k
            assert actual_min_out_degree(k, VertexSet(0, order)) == 0
            full = VertexSet((1 << order) - 1, order)
            assert actual_min_out_degree(k, full) == (order - 1) // 2
            for v in {0, order // 2, order - 1}:
                assert actual_min_out_degree(k, vs([v], k)) == 0

    def test_one_empty_top_level_part(self):
        rng = random.Random(7)
        for k in range(1, 7):
            third = 3 ** (k - 1)
            for empty in range(3):
                kept = [v for v in range(3 ** k) if v // third != empty]
                for _ in range(10):
                    x = vs(rng.sample(kept, rng.randint(1, len(kept))), k)
                    assert actual_min_out_degree(k, x) == self.dense(k, x)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=5).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(min_value=0, max_value=(1 << 3 ** k) - 1))))
    def test_matches_dense(self, k_bits):
        k, bits = k_bits
        x = VertexSet(bits, 3 ** k)
        assert actual_min_out_degree(k, x) == self.dense(k, x)

    def test_refusals(self):
        with pytest.raises(DimensionError):
            actual_min_out_degree(2, VertexSet(0, 8))
        with pytest.raises(ValueError, match="above the largest level, 10"):
            actual_min_out_degree(11, VertexSet(0, 3 ** 11))

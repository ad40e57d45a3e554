"""Fencing tokens: ordering, ambient scope, admission, leader hints.

The unit half of the fencing story — :class:`FencingToken` ordering,
the ``fence_scope`` contextvar plumbing, and :class:`FenceGuard`
high-water-mark admission.  The wire half (tokens stamped on CALL
messages) is pinned in ``test_wire/test_golden_bytes``;
the end-to-end half (a lapsed lease holder rejected mid-chaos) lives
in ``test_cluster/test_chaos_directory``.
"""

import pytest

from repro.errors import FencedWriteError
from repro.obs.metrics import MetricsRegistry
from repro.rpc import (
    FenceGuard,
    FencingToken,
    current_fence,
    fence_scope,
    pack_leader_hint,
    parse_leader_hint,
)


class TestFencingToken:
    def test_lexicographic_ordering(self):
        # Epoch dominates counter: a newer leader's first grant
        # outranks the old leader's millionth.
        assert FencingToken(2, 1) > FencingToken(1, 1_000_000)
        assert FencingToken(1, 2) > FencingToken(1, 1)
        assert FencingToken(1, 1) == FencingToken(1, 1)

    def test_zero_token_is_falsy_means_unfenced(self):
        assert not FencingToken()
        assert not FencingToken(0, 0)
        assert FencingToken(1, 0)
        assert FencingToken(0, 1)

    def test_str_is_epoch_dot_counter(self):
        assert str(FencingToken(3, 17)) == "3.17"

    def test_frozen(self):
        with pytest.raises(Exception):
            FencingToken(1, 1).epoch = 2


class TestFenceScope:
    def test_default_is_unfenced(self):
        assert current_fence() is None

    def test_scope_sets_and_restores(self):
        token = FencingToken(5, 9)
        with fence_scope(token):
            assert current_fence() == token
        assert current_fence() is None

    def test_nesting_innermost_wins_and_none_unfences(self):
        outer, inner = FencingToken(1, 1), FencingToken(2, 2)
        with fence_scope(outer):
            with fence_scope(inner):
                assert current_fence() == inner
            assert current_fence() == outer
            with fence_scope(None):
                assert current_fence() is None
            assert current_fence() == outer


class TestFenceGuard:
    def test_unfenced_writes_pass_untouched(self):
        guard = FenceGuard()
        guard.admit("k")  # no ambient token, no explicit token
        guard.admit("k", FencingToken())  # explicit zero token
        assert guard.mark("k") is None

    def test_stale_token_is_rejected_after_newer_admitted(self):
        guard = FenceGuard()
        guard.admit("k", FencingToken(2, 1))
        with pytest.raises(FencedWriteError):
            guard.admit("k", FencingToken(1, 9))

    def test_equal_token_readmits_its_own_retry(self):
        guard = FenceGuard()
        token = FencingToken(3, 3)
        guard.admit("k", token)
        guard.admit("k", token)  # a retry is not a conflict
        assert guard.mark("k") == token

    def test_marks_are_per_key(self):
        guard = FenceGuard()
        guard.admit("a", FencingToken(9, 9))
        guard.admit("b", FencingToken(1, 1))  # different key, fine

    def test_ambient_token_via_scope(self):
        guard = FenceGuard()
        with fence_scope(FencingToken(4, 4)):
            guard.admit("k")
        with fence_scope(FencingToken(3, 1)):
            with pytest.raises(FencedWriteError):
                guard.admit("k")

    def test_rejections_are_counted(self):
        metrics = MetricsRegistry()
        guard = FenceGuard(metrics=metrics)
        guard.admit("k", FencingToken(2, 2))
        for _ in range(3):
            with pytest.raises(FencedWriteError):
                guard.admit("k", FencingToken(1, 1))
        assert metrics.counter("cluster.directory.fenced_writes").value == 3

    def test_clear_forgets_the_mark(self):
        guard = FenceGuard()
        guard.admit("k", FencingToken(5, 5))
        guard.clear("k")
        guard.admit("k", FencingToken(1, 1))  # fresh resource, fresh mark


class TestLeaderHint:
    def test_round_trip(self):
        packed = pack_leader_hint("not the leader", "memory://dir-2")
        assert parse_leader_hint(packed) == "memory://dir-2"
        assert packed.startswith("not the leader")

    def test_empty_url_packs_nothing(self):
        assert pack_leader_hint("msg", "") == "msg"

    def test_absent_hint_parses_empty(self):
        assert parse_leader_hint("plain message") == ""
        assert parse_leader_hint("broken [leader=memory://x") == ""

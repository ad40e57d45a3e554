"""Unit tests for the credit gate/ledger pair (CREDIT frame semantics).

The properties pinned here are the ones the chaos suite relies on:
grants max-merge (duplicates and reordering are no-ops), a stalled
producer probes its way out of a lost grant, and usage never exceeds
the grant.
"""

import asyncio

import pytest

from repro.errors import CreditExhaustedError
from repro.flow import (
    MESSAGE_OVERHEAD,
    CreditGate,
    CreditLedger,
    message_cost,
)
from tests.support import async_test, eventually


def open_gate(msgs=10, nbytes=10_000, **kwargs) -> CreditGate:
    gate = CreditGate(**kwargs)
    gate.update(msgs, nbytes)
    return gate


class TestGateAccounting:
    def test_message_cost_includes_overhead(self):
        assert message_cost(b"") == MESSAGE_OVERHEAD
        assert message_cost(b"xyz") == MESSAGE_OVERHEAD + 3

    def test_try_acquire_consumes_window(self):
        gate = open_gate(msgs=2, nbytes=300)
        assert gate.try_acquire(100)
        assert gate.try_acquire(100)
        assert not gate.try_acquire(100)  # msg window spent
        assert gate.used_msgs == 2 and gate.used_bytes == 200

    def test_byte_window_binds_independently(self):
        gate = open_gate(msgs=10, nbytes=150)
        assert gate.try_acquire(100)
        assert not gate.try_acquire(100)  # would exceed byte grant

    def test_unlimited_gate_never_blocks(self):
        gate = CreditGate(unlimited=True)
        for _ in range(1000):
            assert gate.try_acquire(1 << 20)
        assert gate.used_msgs == 0  # nothing tracked


class TestGrantMerging:
    def test_grants_are_cumulative_max_merge(self):
        gate = open_gate(msgs=10, nbytes=1000)
        gate.update(5, 500)  # stale: must not shrink
        assert gate.granted_msgs == 10 and gate.granted_bytes == 1000
        gate.update(20, 2000)
        assert gate.granted_msgs == 20 and gate.granted_bytes == 2000

    def test_duplicate_grant_is_noop(self):
        gate = open_gate(msgs=10, nbytes=1000)
        before = (gate.granted_msgs, gate.granted_bytes)
        gate.update(10, 1000)
        gate.update(10, 1000)
        assert (gate.granted_msgs, gate.granted_bytes) == before

    def test_usage_never_exceeds_grant(self):
        """The chaos invariant, exercised deterministically."""
        gate = open_gate(msgs=3, nbytes=10_000)
        admitted = sum(1 for _ in range(10) if gate.try_acquire(10))
        assert admitted == 3
        assert gate.used_msgs <= gate.granted_msgs
        assert gate.used_bytes <= gate.granted_bytes


class TestBlockingAcquire:
    @async_test
    async def test_nowait_raises_when_exhausted(self):
        gate = open_gate(msgs=1, nbytes=1000)
        await gate.acquire(10)
        with pytest.raises(CreditExhaustedError):
            await gate.acquire(10, nowait=True)

    @async_test
    async def test_blocked_acquire_wakes_on_grant(self):
        gate = open_gate(msgs=1, nbytes=1000)
        await gate.acquire(10)
        waiter = asyncio.ensure_future(gate.acquire(10))
        await asyncio.sleep(0.01)
        assert not waiter.done()
        assert gate.stalls == 1
        gate.update(2, 2000)
        await asyncio.wait_for(waiter, 1.0)
        assert gate.used_msgs == 2

    @async_test
    async def test_stall_probes_for_lost_grant(self):
        """A dropped CREDIT frame must not deadlock: probes recover it."""
        probes = []

        async def send_probe(used_msgs, used_bytes):
            probes.append((used_msgs, used_bytes))
            # The consumer answers the probe with its current grant —
            # the re-announcement a lossy link ate the first time.
            gate.update(2, 2000)

        gate = CreditGate(send_probe=send_probe, probe_interval=0.01)
        gate.update(1, 1000)
        await gate.acquire(10)
        await asyncio.wait_for(gate.acquire(10), 2.0)
        assert probes and probes[0] == (1, 10)  # cumulative usage
        assert gate.probes >= 1

    @async_test
    async def test_fail_poisons_waiters(self):
        gate = open_gate(msgs=1, nbytes=1000)
        await gate.acquire(10)
        waiter = asyncio.ensure_future(gate.acquire(10))
        await asyncio.sleep(0.005)
        gate.fail(ConnectionError("gone"))
        with pytest.raises(ConnectionError):
            await asyncio.wait_for(waiter, 1.0)

    @async_test
    async def test_reset_restarts_cumulative_arithmetic(self):
        gate = open_gate(msgs=2, nbytes=1000)
        await gate.acquire(10)
        gate.reset(unlimited=False)
        assert gate.used_msgs == 0 and gate.granted_msgs == 0
        gate.update(1, 1000)  # fresh channel's first grant
        assert gate.try_acquire(10)


class TestLedger:
    @async_test
    async def test_announce_sends_drained_plus_window(self):
        grants = []

        async def send(msgs, nbytes):
            grants.append((msgs, nbytes))

        ledger = CreditLedger(send, window_msgs=8, window_bytes=800)
        await ledger.announce()
        assert grants == [(8, 800)]
        for _ in range(3):
            await ledger.drained(10)
        await ledger.announce()
        assert grants[-1] == (8 + 3, 800 + 30)

    @async_test
    async def test_regrants_at_half_window(self):
        grants = []

        async def send(msgs, nbytes):
            grants.append(msgs)

        ledger = CreditLedger(send, window_msgs=8, window_bytes=8000)
        await ledger.announce()
        for _ in range(3):
            await ledger.drained(10)
        assert len(grants) == 1  # under the half-window mark
        await ledger.drained(10)
        assert len(grants) == 2  # 4 drained = half of 8: fresh grant
        assert grants[-1] == 4 + 8

    @async_test
    async def test_gate_and_ledger_converse(self):
        """Producer and consumer glued directly: flood stays bounded."""
        gate = CreditGate()
        ledger = CreditLedger(
            lambda m, b: _update(gate, m, b), window_msgs=4, window_bytes=4000
        )
        await ledger.announce()
        sent = 0
        for _ in range(50):
            await asyncio.wait_for(gate.acquire(10), 1.0)
            sent += 1
            await ledger.drained(10)
        assert sent == 50
        assert gate.used_msgs <= gate.granted_msgs

    def test_bad_windows_rejected(self):
        with pytest.raises(ValueError):
            CreditLedger(lambda m, b: None, window_msgs=0)


async def _update(gate, msgs, nbytes):
    gate.update(msgs, nbytes)


class TestBatchAcquire:
    """`acquire_batch`: one blocking wait per pump batch, then greedy
    non-blocking takes — the credit arithmetic of a coalesced flush."""

    @async_test
    async def test_takes_whole_batch_when_window_allows(self):
        gate = open_gate(msgs=10, nbytes=10_000)
        taken = await gate.acquire_batch([100, 100, 100])
        assert taken == 3
        assert gate.used_msgs == 3

    @async_test
    async def test_partial_when_window_smaller_than_batch(self):
        # A batch larger than the window degrades to a window-sized
        # flush (the caller loops), never a deadlock.
        gate = open_gate(msgs=2, nbytes=10_000)
        taken = await gate.acquire_batch([10, 10, 10, 10])
        assert taken == 2
        assert gate.used_msgs == 2

    @async_test
    async def test_blocks_only_for_the_first_message(self):
        gate = open_gate(msgs=1, nbytes=1000)
        await gate.acquire(10)  # exhaust
        waiter = asyncio.ensure_future(gate.acquire_batch([10, 10, 10]))
        await asyncio.sleep(0.01)
        assert not waiter.done()
        gate.update(3, 3000)  # grant covers two more, not the third
        taken = await asyncio.wait_for(waiter, 1.0)
        assert taken == 2
        assert gate.used_msgs == 3

    @async_test
    async def test_empty_batch_is_free(self):
        gate = open_gate(msgs=1, nbytes=1000)
        assert await gate.acquire_batch([]) == 0
        assert gate.used_msgs == 0

    @async_test
    async def test_unlimited_gate_takes_everything(self):
        gate = CreditGate(unlimited=True)  # a consumer that never grants
        assert await gate.acquire_batch([10] * 50) == 50

    @async_test
    async def test_nowait_first_message_raises_when_exhausted(self):
        gate = open_gate(msgs=1, nbytes=1000)
        await gate.acquire(10)
        with pytest.raises(CreditExhaustedError):
            await gate.acquire_batch([10, 10], nowait=True)

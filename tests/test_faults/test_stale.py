"""Stale handles surfacing client-side (§3.5.1 validity checking).

After the server releases (or re-tags) an object, every outstanding
copy of its handle is a dangling capability.  These tests pin how that
surfaces at the client: synchronous calls raise
:class:`~repro.errors.RemoteStaleError` (a
:class:`~repro.errors.StaleHandleError`), *batched posts* — which have
no reply to carry the error — are reported out-of-band and mark the
handle locally, and once marked, later uses fail fast
without touching the wire.
"""

import itertools

import pytest

from repro import ClamClient, ClamServer, RemoteInterface
from repro.errors import RemoteError, RemoteStaleError, StaleHandleError
from tests.support import async_test, eventually

_ids = itertools.count(1)

COUNTER_SOURCE = '''
from repro.stubs import RemoteInterface


class Counter(RemoteInterface):
    def __init__(self):
        self.value = 0

    def add(self, amount: int) -> None:
        self.value += amount

    def total(self) -> int:
        return self.value
'''


class Counter(RemoteInterface):
    def add(self, amount: int) -> None: ...
    def total(self) -> int: ...


async def start(**client_kwargs):
    server = ClamServer()
    address = await server.start(f"memory://stale-{next(_ids)}")
    client = await ClamClient.connect(address, **client_kwargs)
    await client.load_module("counter", COUNTER_SOURCE)
    counter = await client.create(Counter)
    return server, client, counter


class TestSyncCalls:
    @async_test
    async def test_released_handle_raises_stale(self):
        server, client, counter = await start()
        await counter.add(1)
        assert await counter.total() == 1
        await client.release(counter)
        with pytest.raises(StaleHandleError):
            await counter.total()
        await client.close()
        await server.shutdown()

    @async_test
    async def test_stale_error_is_also_a_remote_error(self):
        """Compatibility: callers catching RemoteError keep working."""
        server, client, counter = await start()
        await client.release(counter)
        with pytest.raises(RemoteError) as info:
            await counter.total()
        assert info.value.remote_type == "StaleHandleError"
        assert isinstance(info.value, RemoteStaleError)
        await client.close()
        await server.shutdown()

    @async_test
    async def test_marked_handle_fails_fast_without_wire_round_trip(self):
        server, client, counter = await start()
        await client.release(counter)
        with pytest.raises(StaleHandleError):
            await counter.total()
        sent_before = client.rpc.sync_calls
        with pytest.raises(StaleHandleError):
            await counter.total()
        assert client.rpc.sync_calls == sent_before  # rejected locally
        await client.close()
        await server.shutdown()

    @async_test
    async def test_rotated_tag_is_a_dead_capability(self):
        """Release-and-republish in one step: same oid, fresh tag.

        The old handle hits the §3.5.1 tag comparison and fails; the
        new handle reaches the same (surviving) object.
        """
        server, client, counter = await start()
        await counter.add(3)
        assert await counter.total() == 3  # fence the batched add
        old_handle = counter._clam_handle_
        new_handle = server.exports.table.rotate_tag(old_handle)
        assert (new_handle.oid, new_handle.tag) != (old_handle.oid, old_handle.tag)

        with pytest.raises(StaleHandleError) as info:
            await counter.total()
        assert info.value.remote_type == "ForgedHandleError"
        assert client.rpc.is_stale(old_handle)

        fresh = client.proxy(Counter, new_handle)
        assert await fresh.total() == 3  # the object itself survived
        await client.close()
        await server.shutdown()


class TestBatchedPosts:
    @async_test
    async def test_stale_post_marks_handle_out_of_band(self):
        """A post has no reply; the server reports its stale fault unasked."""
        server, client, counter = await start()
        await counter.add(1)
        await client.release(counter)

        await counter.add(5)  # queued; the fault comes back later
        await client.flush()
        await eventually(lambda: client.rpc.is_stale(counter._clam_handle_))
        assert client.metrics.counter("rpc.client.stale_posts").value == 1

        # Later posts are refused locally, before batching.
        with pytest.raises(StaleHandleError):
            await counter.add(6)
        await client.close()
        await server.shutdown()

    @async_test
    async def test_mixed_batch_survives_one_stale_post(self):
        """One bad post must not poison the batch around it."""
        server, client, doomed = await start()
        healthy = await client.create(Counter)
        await client.release(doomed)

        await doomed.add(1)
        await healthy.add(2)
        await healthy.add(3)
        await client.flush()
        assert await healthy.total() == 5
        await eventually(lambda: client.rpc.is_stale(doomed._clam_handle_))
        assert not client.rpc.is_stale(healthy._clam_handle_)
        await client.close()
        await server.shutdown()

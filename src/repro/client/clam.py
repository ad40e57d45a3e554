"""The ClamClient: application-side runtime (paper §2, §4.4).

Connecting opens the two streams of §4.4 (RPC, then upcall, tied
together by the session token from the server's HELLO reply), builds
the client bundler registry — structural derivation plus the client
halves of object-pointer and procedure-pointer bundling — and starts
the upcall service task.

From there the paper's workflow reads directly:

    client = await ClamClient.connect("unix:///tmp/clam.sock")
    await client.load_class(SweepLayer)            # dynamic loading (§2)
    sweep = await client.create(SweepLayer)        # instance + handle
    await sweep.postinput(my_mouse_handler)        # upcall registration (§4.1)

Resilience: ``connect(..., reconnect=True)`` starts a supervisor that
re-establishes both streams when the connection dies, offering the old
session token so a server configured with ``session_linger`` resumes
the same session (dispatcher, duplicate-call cache, RUC bindings).
After reconnecting, recorded name lookups are replayed; a name whose
handle changed (or vanished) marks the old proxy stale, so its next
use raises :class:`~repro.errors.RemoteStaleError` instead of hitting
a dead capability.
"""

from __future__ import annotations

import asyncio
import itertools
import weakref
from typing import Any, Callable

from repro.errors import (
    ConnectionClosedError,
    ProtocolError,
    TransportError,
)
from repro.bundlers.base import BundlerRegistry
from repro.bundlers.auto import structural_resolver
from repro.core import CallbackTable, install_client_callbacks
from repro.handles import Handle
from repro.ipc import MessageChannel, dial
from repro.loader import source_of
from repro.obs.metrics import MetricsRegistry
from repro.rpc import CallPipeline, RetryPolicy, RpcConnection, install_client_objects
from repro.client.upcall_task import UpcallService
from repro.server.builtin import BUILTIN_HANDLE, ClamServerInterface
from repro.stubs import Proxy, build_proxy, interface_spec
from repro.wire import ChannelRole, HelloMessage, negotiate_version

#: Default bound on connection establishment (dial + HELLO exchange).
DEFAULT_CONNECT_TIMEOUT = 5.0


def _window_kwargs(
    window_msgs: int | None, window_bytes: int | None
) -> dict[str, int]:
    """Only pass what the caller pinned; the ledger keeps its defaults."""
    kwargs: dict[str, int] = {}
    if window_msgs is not None:
        kwargs["window_msgs"] = window_msgs
    if window_bytes is not None:
        kwargs["window_bytes"] = window_bytes
    return kwargs


class ClamClient:
    """A connected CLAM client: two channels, two tasks, one registry."""

    def __init__(
        self,
        rpc: RpcConnection,
        upcall_service: UpcallService,
        upcall_task: asyncio.Task | None,
        callbacks: CallbackTable,
        session: str,
        tracer=None,
        metrics=None,
        *,
        url: str = "",
        channels: str = "two",
        max_active_upcalls: int = 1,
        connect_timeout: float | None = DEFAULT_CONNECT_TIMEOUT,
        reconnect_policy: RetryPolicy | None = None,
        upcall_window: tuple[int | None, int | None] = (None, None),
    ):
        from repro.trace import Tracer

        self.rpc = rpc
        self.callbacks = callbacks
        self.session = session
        #: Measurement surface (see repro.trace); zero cost unsubscribed.
        self.tracer = tracer if tracer is not None else Tracer()
        #: Client-side instruments (batch sizes, call latencies).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._upcall_service = upcall_service
        self._upcall_task = upcall_task  # None in single-stream mode
        self._builtin = build_proxy(ClamServerInterface, rpc, BUILTIN_HANDLE)
        self._url = url
        self._channels = channels
        self._max_active_upcalls = max_active_upcalls
        self._connect_timeout = connect_timeout
        self._upcall_window = upcall_window
        self._closing = False
        #: Looked-up names, replayed after reconnect to revalidate the
        #: proxies they produced: name -> (iface, weak proxy ref).
        self._lookups: dict[str, tuple[type, weakref.ref]] = {}
        self._supervisor: asyncio.Task | None = None
        self._replay_task: asyncio.Task | None = None
        if reconnect_policy is not None:
            self._reconnect_policy = reconnect_policy
            rpc.set_reconnector(self._reconnect_once)
            self._supervisor = asyncio.get_running_loop().create_task(
                self._supervise(), name="clam-client-reconnect"
            )
        else:
            self._reconnect_policy = None

    # -- connection setup -----------------------------------------------------------

    @classmethod
    async def connect(
        cls,
        url: str,
        *,
        max_batch: int = 64,
        flush_delay: float | None = 0.0,
        adaptive_batch: bool = False,
        max_active_upcalls: int = 1,
        channels: str = "two",
        call_timeout: float | None = None,
        connect_timeout: float | None = DEFAULT_CONNECT_TIMEOUT,
        retry: RetryPolicy | None = None,
        reconnect: bool = False,
        reconnect_policy: RetryPolicy | None = None,
        upcall_window_msgs: int | None = None,
        upcall_window_bytes: int | None = None,
    ) -> "ClamClient":
        """Connect to the server at ``url``.

        ``upcall_window_msgs`` / ``upcall_window_bytes`` size the CREDIT
        window this client grants the server for upcalls (defaults in
        :mod:`repro.flow.credits`).  The window paces fan-out delivery
        *and* durable-store replay after a reconnect — a small window
        makes a returning subscriber drain its spilled backlog in small,
        self-clocked bites.

        ``adaptive_batch`` lets the batch queue resize ``max_batch``
        from observed flush occupancy (see
        :class:`~repro.rpc.batch.BatchQueue`).

        ``max_active_upcalls`` relaxes the §4.4 one-upcall-at-a-time
        discipline on the client side; it only matters when the server
        was also configured to admit more than one.

        ``channels`` selects the §4.4 stream layout: ``"two"`` (the
        paper's design — a dedicated upcall stream) or ``"one"``
        (upcalls multiplexed onto the RPC stream, possible here
        because our messages are typed).  Single-stream constraint:
        server code must make upcalls from server *tasks*, never
        inline in an RPC handler, or the shared stream deadlocks.

        ``connect_timeout`` bounds connection establishment — the dial
        plus the HELLO exchange — raising
        :class:`~repro.errors.TransportError` when the server does not
        answer in time; ``None`` waits forever.

        ``retry`` enables client-side retries of synchronous calls
        declared :func:`~repro.stubs.idempotent`; retries reuse the
        call's serial, so the server's duplicate cache keeps execution
        at-most-once even when a retry crosses its original.

        ``reconnect=True`` supervises the connection: when it dies the
        client re-dials ``url`` (backoff per ``reconnect_policy``,
        default :class:`~repro.rpc.RetryPolicy`), offers its old
        session token (resumed when the server lingers sessions), and
        replays recorded lookups — proxies whose handles changed go
        locally stale.

        The HELLO exchange raises :class:`~repro.errors.ProtocolError`
        when the server acknowledges a protocol version this client
        does not speak.
        """
        if channels not in ("one", "two"):
            raise ValueError(f"channels must be 'one' or 'two', not {channels!r}")
        from repro.trace import Tracer

        tracer = Tracer()
        metrics = MetricsRegistry()
        registry = BundlerRegistry()
        registry.add_resolver(structural_resolver)
        callbacks = CallbackTable()
        install_client_callbacks(registry, callbacks)

        # Channel one: RPC.  The HELLO exchange yields the session token.
        rpc_channel, ack = await cls._bounded(
            cls._hello_rpc(url), connect_timeout, url
        )
        session = ack.session

        rpc = RpcConnection(
            rpc_channel,
            registry,
            max_batch=max_batch,
            flush_delay=flush_delay,
            adaptive_batch=adaptive_batch,
            call_timeout=call_timeout,
            retry=retry,
            tracer=tracer,
            metrics=metrics,
            flow_credits=True,
        )
        install_client_objects(registry, rpc)

        if channels == "two":
            # Channel two: upcalls, tied to the session by its token.
            upcall_channel = await cls._bounded(
                cls._hello_upcall(url, session), connect_timeout, url
            )
            service = UpcallService(
                upcall_channel,
                callbacks,
                max_active=max_active_upcalls,
                tracer=tracer,
                metrics=metrics,
            )
            # Grant the server its upcall window (roles reversed from
            # the RPC stream); the first grant engages the session's gate.
            service.enable_credits(**_window_kwargs(
                upcall_window_msgs, upcall_window_bytes
            ))
            await service.announce_credits()
            upcall_task = asyncio.get_running_loop().create_task(
                service.run(), name="clam-client-upcalls"
            )
        else:
            # Single-stream mode: upcalls arrive on the RPC channel and
            # replies go back on it; the reader hands them to the
            # service, which runs each on its own task.
            service = UpcallService(
                rpc.channel,
                callbacks,
                max_active=max_active_upcalls,
                tracer=tracer,
                metrics=metrics,
            )
            upcall_task = None
        # Accept upcalls multiplexed onto the RPC stream in BOTH modes:
        # single-stream clients always receive them there, and a
        # two-stream client whose dedicated channel died receives the
        # server's fallback there.  Replies return on the RPC stream.
        rpc.set_upcall_sink(
            lambda message: service.accept(message, reply_channel=rpc.channel)
        )
        if reconnect and reconnect_policy is None:
            reconnect_policy = RetryPolicy()
        return cls(
            rpc, service, upcall_task, callbacks, session,
            tracer=tracer, metrics=metrics,
            url=url,
            channels=channels,
            max_active_upcalls=max_active_upcalls,
            connect_timeout=connect_timeout,
            reconnect_policy=reconnect_policy if reconnect else None,
            upcall_window=(upcall_window_msgs, upcall_window_bytes),
        )

    @staticmethod
    async def _bounded(awaitable, timeout: float | None, url: str):
        """Bound connection establishment; timeouts become TransportError."""
        if timeout is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable, timeout)
        except asyncio.TimeoutError:
            raise TransportError(
                f"connecting to {url!r} timed out after {timeout}s"
            ) from None

    @staticmethod
    async def _hello_rpc(
        url: str, resume: str = ""
    ) -> tuple[MessageChannel, HelloMessage]:
        """Dial and perform the RPC-role HELLO exchange.

        ``resume`` offers an old session token; a lingering server
        resumes that session and echoes the token back.
        """
        channel = MessageChannel(await dial(url))
        try:
            await channel.send(HelloMessage(role=ChannelRole.RPC, session=resume))
            ack = await channel.recv()
            if not isinstance(ack, HelloMessage) or not ack.session:
                raise ProtocolError(f"bad HELLO reply from server: {ack!r}")
            negotiate_version(ack.protocol_version)
        except BaseException:
            await channel.close()
            raise
        return channel, ack

    @staticmethod
    async def _hello_upcall(url: str, session: str) -> MessageChannel:
        """Dial the second stream and bind it to the session by token."""
        channel = MessageChannel(await dial(url))
        await channel.send(HelloMessage(role=ChannelRole.UPCALL, session=session))
        return channel

    # -- reconnect supervision ---------------------------------------------------------

    async def _reconnect_once(self) -> None:
        """Re-establish both streams; called under the rpc reconnect lock.

        Offers the old session token.  If the server resumed it, all
        session state (dispatcher dedup cache, RUC bindings) survived;
        otherwise we adopt the fresh token.  Either way, recorded
        lookups are replayed to revalidate proxies.
        """
        rpc_channel, ack = await self._bounded(
            self._hello_rpc(self._url, resume=self.session),
            self._connect_timeout,
            self._url,
        )
        resumed = ack.session == self.session
        self.session = ack.session
        if self._channels == "two":
            try:
                upcall_channel = await self._bounded(
                    self._hello_upcall(self._url, self.session),
                    self._connect_timeout,
                    self._url,
                )
            except BaseException:
                await rpc_channel.close()
                raise
            self._upcall_service.adopt_channel(upcall_channel)
            # Fresh channel, fresh cumulative grant arithmetic on both
            # ends: rebuild the ledger and re-announce (same window sizes
            # the connect asked for).
            self._upcall_service.enable_credits(
                **_window_kwargs(*self._upcall_window)
            )
            await self._upcall_service.announce_credits()
            if self._upcall_task is not None and not self._upcall_task.done():
                self._upcall_task.cancel()
            self._upcall_task = asyncio.get_running_loop().create_task(
                self._upcall_service.run(), name="clam-client-upcalls"
            )
        self.rpc.adopt_channel(rpc_channel)
        # Replay on a task of its own, OUTSIDE the rpc reconnect lock
        # this coroutine runs under — a replay lookup that hits another
        # disconnect must be able to take that lock again.
        self._replay_task = asyncio.get_running_loop().create_task(
            self._replay_lookups(resumed), name="clam-client-replay"
        )

    async def _supervise(self) -> None:
        """Proactively reconnect whenever the RPC stream drops."""
        while not self._closing:
            await self.rpc.disconnected.wait()
            if self._closing:
                return
            reconnected = False
            for delay in itertools.chain([0.0], self._reconnect_policy.delays()):
                if delay:
                    await asyncio.sleep(delay)
                if self._closing:
                    return
                try:
                    await self.rpc._reconnect()
                    reconnected = True
                    break
                except ConnectionClosedError:
                    if self._closing:
                        return
                except Exception:
                    pass
            if not reconnected:
                return  # policy exhausted; the connection stays down

    async def _replay_lookups(self, resumed: bool) -> None:
        """Revalidate proxies produced by :meth:`lookup`.

        A name that now resolves to a different handle — or no longer
        resolves — means the old proxy's capability is dead: it is
        marked stale so its next use raises
        :class:`~repro.errors.RemoteStaleError` instead of shipping a
        dead tag to the server.  ``resumed`` is informational; exports
        are server-wide, so names are checked in both cases.
        """
        from repro.errors import RemoteError

        for name, (iface, ref) in list(self._lookups.items()):
            proxy = ref()
            if proxy is None:
                del self._lookups[name]
                continue
            old = proxy._clam_handle_
            try:
                fresh = await self._builtin.lookup(name)
            except RemoteError:
                # The server answered: the name is gone.
                self.rpc.mark_stale(old)
                continue
            except Exception:
                # Transport trouble — no verdict; the next reconnect
                # replays again.
                return
            if fresh != old:
                self.rpc.mark_stale(old)

    async def close(self) -> None:
        self._closing = True
        for task in (self._supervisor, self._replay_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        await self.rpc.close()
        await self._upcall_service.close()
        if self._upcall_task is not None:
            self._upcall_task.cancel()
            try:
                await self._upcall_task
            except (asyncio.CancelledError, Exception):
                pass

    async def __aenter__(self) -> "ClamClient":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    # -- builtin interface conveniences ------------------------------------------------

    @property
    def server(self) -> Proxy:
        """Proxy for the builtin server interface (advanced use)."""
        return self._builtin

    @property
    def upcalls_handled(self) -> int:
        return self._upcall_service.upcalls_handled

    async def ping(self) -> int:
        return await self._builtin.ping()

    async def load_module(self, name: str, source: str) -> list[str]:
        """Ship module source into the server (§2)."""
        return await self._builtin.load_module(name, source)

    async def load_class(self, cls: type, *, module_name: str | None = None) -> list[str]:
        """Ship one class's source as a module of its own."""
        return await self.load_module(
            module_name or f"class_{cls.__name__}", source_of(cls)
        )

    async def create(
        self,
        iface: type,
        *,
        class_name: str | None = None,
        version: int = 0,
    ) -> Proxy:
        """Instantiate a loaded class in the server; returns its proxy.

        ``iface`` is the local declaration used to generate the proxy;
        ``class_name`` defaults to its wire name.
        """
        name = class_name or interface_spec(iface).class_name
        handle = await self._builtin.create(name, version)
        return build_proxy(iface, self.rpc, handle)

    async def lookup(self, iface: type, name: str) -> Proxy:
        """Fetch a published object by name; returns its proxy.

        The lookup is recorded: after a reconnect it is replayed, and
        the proxy goes locally stale if the name no longer resolves to
        the same handle.
        """
        handle = await self._builtin.lookup(name)
        proxy = build_proxy(iface, self.rpc, handle)
        self._lookups[name] = (iface, weakref.ref(proxy))
        return proxy

    async def publish(self, name: str, proxy: Proxy) -> None:
        """Publish an object this client holds a proxy for.

        Publishing over an existing name deliberately overwrites it;
        clients that looked the old binding up see their proxies go
        stale after their next reconnect replay.
        """
        await self._builtin.publish(name, proxy._clam_handle_)

    async def unpublish(self, name: str) -> bool:
        """Retract a published name (the object itself stays valid)."""
        return await self._builtin.unpublish(name)

    async def list_names(self) -> list[str]:
        """Enumerate the server's published namespace."""
        return await self._builtin.list_names()

    async def release(self, proxy: Proxy) -> None:
        """Revoke the object behind ``proxy``; all copies of its handle
        (here and in other clients) go stale."""
        await self._builtin.release(proxy._clam_handle_)

    def proxy(self, iface: type, handle: Handle) -> Proxy:
        """Wrap a raw handle (e.g. from a custom method) in a proxy."""
        return build_proxy(iface, self.rpc, handle)

    async def sync(self) -> int:
        """Flush batched calls and fence on their execution (§3.4)."""
        await self.rpc.flush()
        return await self._builtin.sync()

    async def flush(self) -> None:
        """Flush batched calls without waiting for execution."""
        await self.rpc.flush()

    def pipeline(self, depth: int = 8) -> CallPipeline:
        """A :class:`~repro.rpc.CallPipeline` over this client.

        Keeps up to ``depth`` synchronous calls in flight on the RPC
        channel — replies match by serial out of order, so N
        independent calls cost ~``N/depth`` round trips instead of N::

            async with client.pipeline(depth=16) as pipe:
                futures = [pipe.submit(svc.get(k)) for k in keys]
            values = [f.result() for f in futures]
        """
        return CallPipeline(depth)

    async def register_error_handler(
        self, handler: Callable[[str, int, str, str], Any]
    ) -> None:
        """Receive §4.3 error-reporting upcalls for faulty loaded classes."""
        await self._builtin.register_error_handler(handler)

    async def list_classes(self) -> list[str]:
        return await self._builtin.list_classes()

    async def list_modules(self) -> list[str]:
        return await self._builtin.list_modules()

    async def versions_of(self, class_name: str) -> list[int]:
        return await self._builtin.versions_of(class_name)

    async def server_stats(self) -> dict[str, int]:
        """Server health counters (see the builtin ``stats``)."""
        return await self._builtin.stats()

    async def server_metrics(self) -> dict[str, float]:
        """Scrape the server's metrics registry (see the builtin
        ``metrics``): counters, gauges, and histogram summaries."""
        return await self._builtin.metrics()

    async def server_profile(self) -> dict[str, float]:
        """The server's per-layer profile (see the builtin ``profile``):
        flat ``<layer>.<metric>`` floats — call counts, execution time,
        argument volume, and distributed-upcall cost per layer."""
        return await self._builtin.profile()

    async def flight_dump(self, reason: str = "") -> str:
        """Cut a flight-recorder dump on the server (see the builtin
        ``dump``); returns the JSONL artifact as a string."""
        return await self._builtin.dump(reason)

    async def store_ack(self, topic: str, durable_id: str, seq: int) -> int:
        """Acknowledge durable deliveries up to ``seq`` (cumulative).

        Tells the server's store this subscriber has durably applied
        everything through ``seq`` on ``topic``, letting it truncate
        the acked prefix of the spill log.  Idempotent (max-merge);
        returns the cursor after the merge.
        """
        return await self._builtin.store_ack(topic, durable_id, seq)

    async def store_stats(self) -> dict[str, float]:
        """Per-topic, per-durable-id spill stats from the server's store."""
        return await self._builtin.store_stats()

    @property
    def reconnects(self) -> int:
        """How many times this client's RPC channel was re-adopted."""
        return self.rpc.reconnects

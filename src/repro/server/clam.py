"""The CLAM server runtime (paper §2, §4.3, §4.4).

Assembles every statically linked service the paper lists — dynamic
loading, version control, thread scheduling and synchronization, and
distributed upcalls — around per-client sessions.  Application code
enters either dynamically (clients load modules) or by the embedding
program exporting objects before :meth:`ClamServer.start` (the paper's
server creates its screen and base window the same way).

Connection handling: the first frame on every connection is a HELLO.
``role=RPC`` creates a session (the server answers with a HELLO
carrying the session token); ``role=UPCALL`` attaches the second
stream of §4.4 to the session named by its token.
"""

from __future__ import annotations

import asyncio
import collections
import os
import time
from typing import Any

from repro.errors import (
    ClamError,
    ConnectionClosedError,
    ProtocolError,
)
from repro.bundlers.base import BundlerRegistry
from repro.bundlers.auto import structural_resolver
from repro.flow import (
    DEFAULT_WINDOW_BYTES,
    DEFAULT_WINDOW_MSGS,
    AdmissionPolicy,
    FlowController,
)
from repro.handles import Descriptor, Handle
from repro.ipc import Connection, Listener, MessageChannel, serve
from repro.loader import FaultIsolator, ModuleLoader
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import LayerProfiler
from repro.obs.stages import StageTimer
from repro.rpc import Exports
from repro.server.builtin import BUILTIN_HANDLE, BuiltinImpl, ClamServerInterface
from repro.server.session import Session
from repro.stubs import InterfaceSpec, Skeleton, interface_spec
from repro.tasks import TaskSystem
from repro.trace import KIND_FAULT, Tracer
from repro.wire import (
    ChannelRole,
    HelloMessage,
    UpcallExceptionMessage,
    UpcallReplyMessage,
    negotiate_version,
)


class ClamServer:
    """A running CLAM server: listeners, sessions, loaded modules."""

    def __init__(
        self,
        *,
        quarantine_after: int = 1,
        pool_size: int = 32,
        max_active_upcalls: int = 1,
        upcall_timeout: float | None = None,
        session_linger: float = 0.0,
        degrade_upcalls: bool = False,
        registry: BundlerRegistry | None = None,
        admission: AdmissionPolicy | None = None,
        credit_window: int = DEFAULT_WINDOW_MSGS,
        credit_bytes: int = DEFAULT_WINDOW_BYTES,
        flight_capacity: int = 2048,
        flight_dir: str | None = None,
    ):
        if max_active_upcalls < 1:
            raise ValueError("max_active_upcalls must be >= 1")
        if session_linger < 0:
            raise ValueError("session_linger must be >= 0")
        if registry is None:
            registry = BundlerRegistry()
            registry.add_resolver(structural_resolver)
        #: §4.4 relaxation knob: concurrent upcalls admitted per client.
        self.max_active_upcalls = max_active_upcalls
        #: Bound on how long a server task stays blocked in a
        #: distributed upcall (§4.3); None = wait forever (the paper).
        self.upcall_timeout = upcall_timeout
        #: How long a disconnected session survives for resumption.  0
        #: (the default) retires sessions the moment their RPC stream
        #: dies — the seed behaviour.  Positive values let a client
        #: reconnect with its old token and find its dispatcher (and
        #: its duplicate-call cache, and its RUC bindings) intact.
        self.session_linger = session_linger
        #: When True, a *void* distributed upcall that fails — dead
        #: client, raising handler, timeout — degrades to a no-op: the
        #: failure is queued here and reported through the §4.3 error
        #: port instead of propagating into the server layer that held
        #: the procedure pointer.  Off by default: the paper's RUC
        #: surfaces handler failures to the caller.
        self.degrade_upcalls = degrade_upcalls
        #: Audit trail of degraded upcalls: (session token, callback
        #: id, error type, message).  Bounded — old entries fall off.
        self.degraded_upcalls: collections.deque[tuple[str, int, str, str]] = (
            collections.deque(maxlen=256)
        )
        #: Sessions derive their registries from this one.
        self.base_registry = registry
        self.exports = Exports()
        self.loader = ModuleLoader()
        self.isolator = FaultIsolator(quarantine_after=quarantine_after)
        #: Aggregated instruments (see repro.obs.metrics); scraped
        #: remotely via the builtin ``metrics`` RPC.
        self.metrics = MetricsRegistry()
        #: Stage clocks for the upcall pipeline (repro.obs.stages):
        #: shared by every fan-out group and session on this server.
        self.stages = StageTimer(self.metrics)
        #: Fencing-token admission (repro.rpc.fencing): the builtin
        #: publish/unpublish path and any application UpcallGroup that
        #: opts in admit the caller's ambient token here, so a client
        #: whose directory lease lapsed (and was re-granted) cannot
        #: overwrite the successor's writes.
        from repro.rpc.fencing import FenceGuard

        self.fences = FenceGuard(metrics=self.metrics)
        #: Per-layer attribution (repro.obs.profile): RPC time, bytes,
        #: and upcall round trips keyed by exported class name; read
        #: remotely via the builtin ``profile`` RPC.
        self.profiler = LayerProfiler()
        #: Always-on flight recorder (repro.obs.flight): a bounded ring
        #: of recent events, dumped as JSONL when something goes wrong
        #: (deadline expiry, upcall degradation, quarantine trips) or
        #: on the builtin ``dump`` RPC.
        self.flight = FlightRecorder(flight_capacity)
        #: Directory incident dumps are written to; None keeps the
        #: rendered dump in :attr:`last_flight_dump` only.
        self.flight_dir = flight_dir
        #: Paths of incident dumps written so far (when flight_dir set).
        self.flight_dumps: list[str] = []
        #: The most recent dump's JSONL text (always kept).
        self.last_flight_dump: str = ""
        self._flight_seq = 0
        #: Durable store-and-forward plane (see :meth:`attach_store`).
        self.store = None
        self._last_dump_at: dict[str, float] = {}
        #: Metric-push hub (repro.obs.push), created on demand by
        #: :meth:`enable_telemetry`.
        self.telemetry = None
        self.tasks = TaskSystem(
            "clam-server", pool_size=pool_size, metrics=self.metrics
        )
        self.published: dict[str, Handle] = {}
        self.sessions: dict[str, Session] = {}
        self.builtin = BuiltinImpl(self)
        self.builtin_spec: InterfaceSpec = interface_spec(ClamServerInterface)
        #: Measurement surface (see repro.trace); zero cost unsubscribed.
        self.tracer = Tracer()
        #: End-to-end flow control (see repro.flow): the admission
        #: chain judging every inbound call, and the credit windows
        #: granted to clients' batched-call streams.  ``admission``
        #: None means admit everything — the seed behaviour.
        self.flow = FlowController(
            admission=admission,
            window_msgs=credit_window,
            window_bytes=credit_bytes,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.async_errors: list[tuple[str, Exception]] = []
        self._listeners: list[Listener] = []
        self._retired_calls = 0

    # -- lifecycle --------------------------------------------------------------------

    async def start(self, url: str) -> str:
        """Listen at ``url``; returns the bound address (useful for port 0)."""
        listener = await serve(url, self._on_connection)
        self._listeners.append(listener)
        return listener.address

    async def shutdown(self) -> None:
        """Stop listening, drop sessions, cancel tasks."""
        for listener in self._listeners:
            await listener.close()
        self._listeners.clear()
        if self.telemetry is not None:
            await self.telemetry.close()
            self.telemetry = None
        for session in list(self.sessions.values()):
            await self._retire_session(session)
        await self.tasks.shutdown()

    async def __aenter__(self) -> "ClamServer":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.shutdown()

    # -- metrics ------------------------------------------------------------------------

    @property
    def calls_executed(self) -> int:
        return self._retired_calls + sum(
            s.dispatcher.calls_executed for s in self.sessions.values()
        )

    @property
    def session_count(self) -> int:
        return len(self.sessions)

    # -- host-side exporting --------------------------------------------------------------

    def publish(self, name: str, obj: Any, *, spec: InterfaceSpec | None = None) -> Handle:
        """Export a host object and publish it in the name directory.

        This is how an embedding program provides base objects — the
        paper's server creates its screen instance S and base window
        BaseW before clients arrive (§4.2).  Like the builtin
        ``publish``, reusing a name is a deliberate overwrite and is
        counted and traced.
        """
        handle = self.exports.export(obj, spec=spec)
        self.note_republish(name, handle)
        self.published[name] = handle
        return handle

    def note_republish(self, name: str, target: Handle) -> None:
        """Account for a publish that overwrites an existing binding.

        Lookup replay on reconnecting clients is what turns this event
        into :class:`~repro.errors.RemoteStaleError` on their old
        proxies; counting and tracing it here makes the overwrite
        observable on the server too.
        """
        old = self.published.get(name)
        if old is None or old == target:
            return
        self.metrics.counter("naming.republished").inc()
        if self.tracer.active:
            from repro.trace import KIND_NAMING

            self.tracer.point(
                KIND_NAMING,
                f"republish {name}",
                detail=f"oid {old.oid} -> {target.oid}",
            )

    def note_unpublish(self, name: str) -> None:
        """Account for a name retracted from the directory."""
        self.metrics.counter("naming.unpublished").inc()
        if self.tracer.active:
            from repro.trace import KIND_NAMING

            self.tracer.point(KIND_NAMING, f"unpublish {name}")

    # -- connection handling --------------------------------------------------------------

    async def _on_connection(self, conn: Connection) -> None:
        channel = MessageChannel(conn)
        hello = await channel.recv()
        if not isinstance(hello, HelloMessage):
            raise ProtocolError(f"expected HELLO, got {hello!r}")
        # The HELLO layout never changes, so a peer below the one wire
        # version is refused here, before any other frame is read.
        negotiate_version(hello.protocol_version)
        if hello.role is ChannelRole.RPC:
            await self._run_rpc_channel(channel, hello)
        else:
            await self._run_upcall_channel(channel, hello.session)

    def _resumable_session(self, token: str) -> Session | None:
        """The lingering session a reconnecting client may resume.

        Resumable means: the token names a session we kept and its RPC
        stream is dead.  A token for a session whose stream still looks
        alive gets a *fresh* session instead — the client compares the
        token in the HELLO ack and knows its old state is gone.
        """
        if not token:
            return None
        session = self.sessions.get(token)
        if session is None:
            return None
        if session.rpc_channel is not None and not session.rpc_channel.closed:
            return None
        return session

    async def _run_rpc_channel(
        self, channel: MessageChannel, hello: HelloMessage
    ) -> None:
        session = self._resumable_session(hello.session)
        if session is None:
            session = Session(self)
            session.dispatcher.set_builtin(
                Skeleton(self.builtin, session.registry, spec=self.builtin_spec),
                _builtin_descriptor(self.builtin),
            )
            self.sessions[session.token] = session
        else:
            # Resumed: a new upcall stream from this client may now
            # *replace* the old one (which may not have noticed the
            # disconnect yet) instead of being rejected as a duplicate.
            session.generation += 1
        session.rpc_channel = channel
        # Acknowledge with our version, which the client checks in turn.
        # A resuming client recognizes its old token in the ack; a
        # different token tells it the old session (and its state)
        # lingered out.
        await channel.send(HelloMessage(role=ChannelRole.RPC, session=session.token))
        # Flow state is per channel (credit arithmetic restarts with
        # it); the initial grant follows the HELLO ack
        # immediately, so the client's gate opens before its first post.
        session.dispatcher.flow = self.flow.channel_flow(channel)
        await session.dispatcher.flow.announce()
        try:
            while True:
                message = await channel.recv()
                if isinstance(message, (UpcallReplyMessage, UpcallExceptionMessage)):
                    # Single-stream client: its upcall replies share
                    # the RPC stream (typed messages make this safe).
                    session.upcall_reply(message)
                else:
                    await session.dispatcher.handle_message(message, channel)
        except ConnectionClosedError:
            pass
        finally:
            await self._release_rpc_channel(session, channel)

    async def _release_rpc_channel(
        self, session: Session, channel: MessageChannel
    ) -> None:
        """The RPC stream died: retire the session now, or let it linger.

        With ``session_linger > 0`` the session stays resumable for
        that long; a reaper retires it if no reconnect claims it.  A
        session already resumed by a newer stream (its ``rpc_channel``
        is no longer ours) is left alone.
        """
        if session.rpc_channel is not channel:
            return
        session.rpc_channel = None
        if self.session_linger <= 0:
            await self._retire_session(session)
            return
        if session.token in self.sessions:
            self.tasks.spawn(self._reap_after_linger(session), name="session-reaper")

    async def _reap_after_linger(self, session: Session) -> None:
        await asyncio.sleep(self.session_linger)
        if session.rpc_channel is None or session.rpc_channel.closed:
            await self._retire_session(session)

    async def _run_upcall_channel(self, channel: MessageChannel, token: str) -> None:
        session = self.sessions.get(token)
        if session is None:
            raise ProtocolError(f"upcall channel for unknown session {token[:8]}...")
        await session.run_upcall_channel(channel)

    async def _retire_session(self, session: Session) -> None:
        if self.sessions.pop(session.token, None) is not None:
            self._retired_calls += session.dispatcher.calls_executed
            await session.close()

    # -- dispatcher hooks (fault isolation, §4.3) ---------------------------------------------

    def _is_loaded_class(self, descriptor: Descriptor) -> bool:
        return descriptor.class_name in self.loader.classes

    def guard_call(self, descriptor: Descriptor) -> None:
        """Refuse calls into quarantined dynamically loaded classes."""
        if self._is_loaded_class(descriptor):
            self.isolator.check(descriptor.class_name, descriptor.version)

    def call_failed(self, descriptor: Descriptor, method: str, exc: Exception) -> None:
        """Catch error signals from loaded code and report them (§4.3).

        Infrastructure errors (bad handles, bundling failures) are the
        caller's problem and are not user-code faults.
        """
        if isinstance(exc, ClamError) or not self._is_loaded_class(descriptor):
            return
        record = self.isolator.record(
            descriptor.class_name, descriptor.version, method, exc
        )
        self.flight.note(
            "fault",
            f"{descriptor.class_name}.{method}",
            f"{type(exc).__name__}: {exc}",
        )
        if self.isolator.is_faulty(descriptor.class_name, descriptor.version):
            # The class just crossed (or sits past) the quarantine
            # threshold — §4.3 fault isolation engaging is exactly the
            # moment the recent past is worth freezing.
            self.note_incident("quarantine", descriptor.class_name)
        if self.tracer.active:
            self.tracer.point(
                KIND_FAULT,
                f"{descriptor.class_name}.{method}",
                detail=f"{type(exc).__name__}: {exc}",
            )
        # "A new task is created in the server that handles the error
        # reporting.  This task will make an upcall ..."
        self.tasks.spawn(self.isolator.report(record), name="fault-report")

    def async_call_failed(self, call, exc: Exception) -> None:
        """Failures of batched calls have nobody waiting; keep them visible."""
        self.async_errors.append((call.method, exc))

    def absorb_upcall_failure(
        self, token: str, callback_id: int, exc: Exception
    ) -> bool:
        """Degradation policy for failed void upcalls (§4 error route).

        Returns True when the failure was absorbed: recorded in the
        bounded :attr:`degraded_upcalls` queue, counted, and reported
        through the §4.3 error port on a fresh task — so the RUC call
        site degrades to a no-op instead of raising.  With
        ``degrade_upcalls=False`` (default) nothing is absorbed and the
        RUC propagates the failure, the paper's behaviour.
        """
        if not self.degrade_upcalls:
            return False
        entry = (token, callback_id, type(exc).__name__, str(exc))
        self.degraded_upcalls.append(entry)
        self.metrics.counter("upcall.server.degraded").inc()
        self.note_incident(
            "upcall-degraded",
            f"ruc-{callback_id}: {type(exc).__name__}: {exc}",
        )
        if self.tracer.active:
            self.tracer.point(
                KIND_FAULT,
                f"upcall-degraded ruc-{callback_id}",
                detail=f"{type(exc).__name__}: {exc}",
            )
        self.tasks.spawn(
            self.isolator.error_port.deliver(
                "<upcall>", 0, type(exc).__name__, str(exc)
            ),
            name="upcall-degrade-report",
        )
        return True

    # -- durable store plane (repro.store) ------------------------------------------------

    def attach_store(self, spool):
        """Adopt a :class:`repro.store.Spool` as this server's durability plane.

        Wires the spool's counters into this server's metrics registry
        and its incidents (log corruption, retention data loss, spill
        failures) into the flight recorder, and enables the builtin
        ``store_ack`` / ``store_stats`` RPCs.  Groups built with
        ``store=spool`` *before* attaching are re-bound too.  Returns
        the spool, so construction chains::

            spool = server.attach_store(Spool("var/spool", fsync="batch"))
            group = UpcallGroup("events", store=spool, metrics=server.metrics)
        """
        spool.bind(metrics=self.metrics, on_incident=self.note_incident)
        self.store = spool
        return spool

    # -- telemetry plane (flight recorder, metric push) -----------------------------------

    def note_incident(self, reason: str, detail: str = "") -> str:
        """Record an incident and freeze the flight recorder's past.

        Notes the incident into the ring, then renders a JSONL dump —
        to a ``flight-<reason>-<n>.jsonl`` file under :attr:`flight_dir`
        when one is configured, else only into
        :attr:`last_flight_dump`.  Dumps are throttled to one per
        reason per second so a chaos storm (every injected fault is an
        incident candidate) produces one snapshot, not thousands.
        """
        self.flight.note("incident", reason, detail)
        self.metrics.counter("flight.incidents", reason=reason).inc()
        now = time.monotonic()
        last = self._last_dump_at.get(reason, -1.0)
        if now - last < 1.0:
            return ""
        self._last_dump_at[reason] = now
        self.last_flight_dump = self.flight.dump_jsonl(reason)
        if self.flight_dir is None:
            return ""
        self._flight_seq += 1
        os.makedirs(self.flight_dir, exist_ok=True)
        path = os.path.join(
            self.flight_dir, f"flight-{reason}-{self._flight_seq}.jsonl"
        )
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(self.last_flight_dump)
        self.flight_dumps.append(path)
        return path

    def enable_telemetry(
        self, *, node: str = "", interval: float = 1.0
    ) -> "Any":
        """Publish the ``clam.telemetry`` service and start pushing.

        Collectors connect, look up the service, and subscribe a sink
        procedure; the hub then pushes this server's full metric
        snapshot over their upcall streams every ``interval`` seconds
        (see :mod:`repro.obs.push`).  Returns the hub.
        """
        if self.telemetry is None:
            from repro.obs.push import TELEMETRY_SERVICE, TelemetryHub

            hub = TelemetryHub(self, node=node, interval=interval)
            self.publish(TELEMETRY_SERVICE, hub)
            hub.start()
            self.telemetry = hub
        return self.telemetry

    def schedule_fault_replay(self) -> None:
        """Replay queued fault reports to a newly registered handler."""
        self.tasks.spawn(
            self.isolator.error_port.replay_queued(), name="fault-replay"
        )


def _builtin_descriptor(builtin: BuiltinImpl) -> Descriptor:
    return Descriptor(
        oid=BUILTIN_HANDLE.oid,
        class_name=ClamServerInterface.__clam_class__,
        version=1,
        tag=BUILTIN_HANDLE.tag,
        obj=builtin,
    )

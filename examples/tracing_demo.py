"""Figure 4.1's registration scenario, watched through the tracer.

Same cast as ``figure_4_1_registration.py`` — screen S, base window
BaseW, and user1's W1 living in the client — but this time both
runtimes have a :class:`repro.trace.TimelineRecorder` subscribed, so
the one interesting event (a mouse press inside W1) comes back as a
*distributed trace*: the client's synchronous ``inject_input`` call,
the server-side handler, the distributed upcall, and the RUC
execution back in the client all carry one ``trace_id``, stitched
over the wire by the trace-context fields of CALL and UPCALL frames.

The demo prints the rendered trace tree, then a few of the metrics
both sides recorded along the way.

Run with::

    python examples/tracing_demo.py
"""

import asyncio

from repro import ClamClient, ClamServer
from repro.obs.export import render_trace_tree
from repro.trace import (
    KIND_CALL,
    KIND_CLIENT_CALL,
    KIND_UPCALL_EXEC,
    TimelineRecorder,
)
from repro.wm import BaseWindow, EventKind, InputEvent, Screen
from repro.wm.geometry import Rect


async def main() -> None:
    print("server: creating S (screen) and BaseW (base window)")
    server = ClamServer()
    screen = Screen(44, 12)
    base = BaseWindow(screen)
    server.publish("screen", screen)
    server.publish("base", base)
    address = await server.start("memory://tracing-demo")

    client = await ClamClient.connect(address)
    screen_proxy = await client.lookup(Screen, "screen")
    base_proxy = await client.lookup(BaseWindow, "base")

    print("client: U1 creates W1 and registers user1::mouse "
          "(distributed upcall path)")
    u1_hits = []

    def user1_mouse(event: InputEvent) -> None:
        u1_hits.append((event.x, event.y))

    w1 = await base_proxy.create_window(Rect(4, 2, 14, 8))
    await w1.postinput(user1_mouse)

    # Subscribe the recorders only now, so the trace tree shows the
    # one operation we care about rather than the setup chatter.
    client_rec, server_rec = TimelineRecorder(), TimelineRecorder()
    client.tracer.subscribe(client_rec)
    server.tracer.subscribe(server_rec)

    print("\nmouse press in W1 routed as a distributed upcall:")
    await screen_proxy.inject_input(
        InputEvent(EventKind.MOUSE_DOWN, 8, 5, button=1, seq=1)
    )
    print(f"  U1 (client) saw: {u1_hits}")
    print(f"  distributed upcalls that crossed the wire: "
          f"{client.upcalls_handled}")

    def ends(rec, kind):
        return [e for e in rec.events if e.kind == kind and e.phase == "end"]
    [call] = ends(client_rec, KIND_CLIENT_CALL)
    [handler] = [e for e in ends(server_rec, KIND_CALL)
                 if "inject_input" in e.name]
    [ruc_exec] = ends(client_rec, KIND_UPCALL_EXEC)
    shared = call.trace_id == handler.trace_id == ruc_exec.trace_id
    print(f"  call, handler, and RUC execution "
          f"share one trace: {'yes' if shared else 'NO'}")

    print("\ndistributed trace tree (client call -> server handler -> "
          "upcall -> RUC execution):")
    tree = render_trace_tree({
        "client": client_rec.events,
        "server": server_rec.events,
    })
    for line in tree.splitlines():
        print("  " + line)

    print("\nwhat the metrics registries saw:")
    server_snap = server.metrics.snapshot()
    client_snap = client.metrics.snapshot()
    print(f"  server  upcall.server.rtt_us.count = "
          f"{server_snap['upcall.server.rtt_us.count']:g}")
    print(f"  server  upcall.server.rtt_us.mean  = "
          f"{server_snap['upcall.server.rtt_us.mean']:.0f}us")
    print(f"  client  rpc.client.call_us.inject_input.count = "
          f"{client_snap['rpc.client.call_us.inject_input.count']:g}")

    await client.close()
    await server.shutdown()


if __name__ == "__main__":
    asyncio.run(main())

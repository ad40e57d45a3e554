"""Observability: distributed trace context, metrics, and exporters.

The paper's group measured CLAM-style layered servers with IPS (their
reference [8]); this package is the reproduction's production-grade
counterpart.  Three pieces:

- :mod:`repro.obs.context` — the W3C-traceparent-style span context
  that rides the wire (``trace_id``/``parent_span`` on call, batch,
  and upcall messages), carried between layers inside a
  process by a :mod:`contextvars` variable so a synchronous call →
  server handler → distributed upcall → client RUC execution forms
  one tree;
- :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  log-bucketed histograms that every runtime (batching, ARQ, task
  pools, dispatch) reports through; scrapeable remotely via the
  builtin ``metrics`` RPC;
- :mod:`repro.obs.export` — subscribers for the
  :class:`repro.trace.Tracer` fan-out: a JSONL event log, a Chrome
  ``trace_event`` file loadable in ``chrome://tracing``/Perfetto, and
  a plain-text distributed-trace tree renderer;
- :mod:`repro.obs.stages` — stage clocks decomposing the upcall
  pipeline (post → queue → gate → write → dispatch → handler) into
  per-stage latency budgets;
- :mod:`repro.obs.profile` — per-layer attribution of RPC time,
  bytes, and upcall round trips, keyed by exported class name;
- :mod:`repro.obs.flight` — the always-on bounded flight recorder
  dumped (JSONL) when something goes wrong;
- :mod:`repro.obs.push` — cluster-wide metric push over distributed
  upcalls (``clam.telemetry``), and :mod:`repro.obs.top`, the live
  console over it.  Imported directly (not re-exported here): they
  sit above the cluster and client layers.

See ``docs/OBSERVABILITY.md`` for the wire format, metric names, and
exporter walkthroughs.
"""

from repro.obs.context import (
    SpanContext,
    current_context,
    new_span_id,
    new_trace_id,
    using_context,
)
from repro.obs.export import (
    ChromeTraceExporter,
    JsonlExporter,
    render_trace_tree,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    HOST_LAYER,
    LayerProfiler,
    current_layer,
    layer_scope,
)
from repro.obs.stages import (
    ALL_STAGES,
    PIPELINE_STAGES,
    STAGE_BUCKETS_US,
    STAGE_PREFIX,
    StageTimer,
    merge_stage,
    stage_budgets,
    stage_metric,
)

__all__ = [
    "SpanContext",
    "current_context",
    "new_span_id",
    "new_trace_id",
    "using_context",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_US",
    "JsonlExporter",
    "ChromeTraceExporter",
    "render_trace_tree",
    "FlightRecorder",
    "LayerProfiler",
    "HOST_LAYER",
    "current_layer",
    "layer_scope",
    "StageTimer",
    "ALL_STAGES",
    "PIPELINE_STAGES",
    "STAGE_BUCKETS_US",
    "STAGE_PREFIX",
    "stage_metric",
    "merge_stage",
    "stage_budgets",
]

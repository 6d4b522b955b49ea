"""Observability: sim-time tracing, metrics, and exporters.

The subsystem threads through the whole stack (DESIGN.md §8):

* :mod:`repro.obs.trace` — spans and the per-simulator tracer; the
  default :data:`NULL_TRACER` opens no-op spans.
* :mod:`repro.obs.spans` — the table of data-path methods that record
  spans, installed only while a tracing session is open.
* :mod:`repro.obs.metrics` — the per-simulator instrument registry.
* :mod:`repro.obs.session` — ambient collection for the experiment
  CLI's ``--trace``/``--metrics`` flags; a tracing session installs the
  span table.
* :mod:`repro.obs.export` — Chrome trace JSON (Perfetto), the text
  flamegraph, per-layer breakdown and utilization reports.
"""

from repro.obs.export import (chrome_trace_events, chrome_trace_json,
                              collect_busy_components, render_flamegraph,
                              render_layer_breakdown,
                              render_metrics_snapshot,
                              render_utilization_report)
from repro.obs.metrics import (DEFAULT_LATENCY_BUCKETS, Counter, Gauge,
                               Histogram, MetricsRegistry)
from repro.obs.session import ObsSession, observe, observe_simulator
from repro.obs.trace import NULL_TRACER, NullTracer, Span, SpanHandle, Tracer

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ObsSession",
    "Span",
    "SpanHandle",
    "Tracer",
    "chrome_trace_events",
    "chrome_trace_json",
    "collect_busy_components",
    "observe",
    "observe_simulator",
    "render_flamegraph",
    "render_layer_breakdown",
    "render_metrics_snapshot",
    "render_utilization_report",
]

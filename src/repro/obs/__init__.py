"""Observability: sim-time tracing, metrics, and exporters.

The subsystem threads through the whole stack (DESIGN.md §8):

* :mod:`repro.obs.trace` — spans and the per-simulator tracer; the
  default :data:`NULL_TRACER` opens no-op spans.
* :mod:`repro.obs.spans` — the table of data-path methods that record
  spans, installed only while a tracing session is open.
* :mod:`repro.obs.metrics` — the per-simulator index of every
  component's plain counters.
* :mod:`repro.obs.session` — ambient collection for the experiment
  CLI's ``--trace``/``--metrics`` flags; a tracing session installs the
  span table.
* :mod:`repro.obs.export` — Chrome trace JSON (Perfetto), the text
  flamegraph, the per-layer breakdown and the metrics table.
"""

from repro.obs.export import (chrome_trace_events, chrome_trace_json,
                              render_flamegraph, render_layer_breakdown,
                              render_metrics_snapshot)
from repro.obs.metrics import MetricsRegistry
from repro.obs.session import ObsSession, observe, observe_simulator
from repro.obs.trace import NULL_TRACER, NullTracer, Span, SpanHandle, Tracer

__all__ = [
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ObsSession",
    "Span",
    "SpanHandle",
    "Tracer",
    "chrome_trace_events",
    "chrome_trace_json",
    "observe",
    "observe_simulator",
    "render_flamegraph",
    "render_layer_breakdown",
    "render_metrics_snapshot",
]

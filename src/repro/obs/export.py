"""Exporters: Chrome trace JSON, text flamegraph, breakdown tables.

Three views of the same recorded spans:

* :func:`chrome_trace_json` — Chrome ``trace_event`` JSON (complete
  ``"X"`` events, sim-time mapped to microseconds).  Load the file at
  https://ui.perfetto.dev to scrub through a request's span tree.
* :func:`render_flamegraph` — a text sim-time flamegraph: the span
  tree merged by name, widest subtrees first, with inclusive time and
  call counts.
* :func:`render_layer_breakdown` — per-layer totals (disk, scsi,
  cougar, xbus, vme, hippi, raid, lfs, server...): inclusive
  span-seconds, bytes and span counts.  Concurrent spans overlap, so
  the column sums exceed elapsed sim-time by design — the table shows
  where *span-time* goes, exactly the Table 1 accounting.

Plus :func:`render_metrics_snapshot`, a registry or session snapshot
as a text table: every component's counters, busy times included.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.obs.trace import Span
from repro.units import MB

__all__ = ["chrome_trace_events", "chrome_trace_json", "render_flamegraph",
           "render_layer_breakdown", "render_metrics_snapshot"]

#: Seconds of sim-time -> trace_event microseconds (a time-unit
#: conversion, not a byte count).
_US = 1e6  # lint: disable=UNIT001


def _span_groups(source) -> list[list[Span]]:
    """Normalize a session, tracer, or plain span list into groups."""
    tracers = getattr(source, "tracers", None)
    if tracers is not None:  # an ObsSession
        return [list(tracer.finished) for tracer in tracers]
    finished = getattr(source, "finished", None)
    if finished is not None:  # a Tracer
        return [list(finished)]
    return [list(source)]


def _clamped_end(span: Span, fallback: float) -> float:
    return span.end if span.end is not None else fallback


def _group_end(spans: list[Span]) -> float:
    return max((span.end for span in spans if span.end is not None),
               default=0.0)


# ---------------------------------------------------------------------------
# Chrome trace_event JSON
# ---------------------------------------------------------------------------

def chrome_trace_events(spans: list[Span], pid: int = 0) -> list[dict]:
    """One list of spans -> trace_event dicts (one process, one
    thread lane per component, in first-seen order)."""
    tids: dict[str, int] = {}
    events: list[dict] = []
    horizon = _group_end(spans)
    for span in spans:
        component = span.component or span.layer
        tid = tids.setdefault(component, len(tids) + 1)
        if span.start is None:
            continue
        args: dict = {"span_id": span.id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.nbytes:
            args["nbytes"] = span.nbytes
        if span.attrs:
            args.update(span.attrs)
        events.append({
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": span.start * _US,
            "dur": (_clamped_end(span, horizon) - span.start) * _US,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    for component, tid in tids.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": component},
        })
    return events


def chrome_trace_json(source) -> str:
    """Serialize a session/tracer/span-list as Chrome trace JSON.

    Each simulator of a session becomes its own ``pid`` so multi-run
    experiments stay separable in the Perfetto timeline.
    """
    events: list[dict] = []
    for pid, spans in enumerate(_span_groups(source)):
        events.extend(chrome_trace_events(spans, pid=pid))
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"sim{pid}"},
        })
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                      indent=None, separators=(",", ":"), sort_keys=True)


# ---------------------------------------------------------------------------
# text flamegraph
# ---------------------------------------------------------------------------

class _Frame:
    __slots__ = ("name", "time", "count", "nbytes", "children")

    def __init__(self, name: str):
        self.name = name
        self.time = 0.0
        self.count = 0
        self.nbytes = 0
        self.children: dict[str, "_Frame"] = {}


def _build_frames(spans: list[Span]) -> _Frame:
    by_id = {span.id: span for span in spans}
    horizon = _group_end(spans)
    root = _Frame("<root>")

    def path_of(span: Span) -> list[str]:
        names: list[str] = []
        cursor: Optional[Span] = span
        while cursor is not None:
            names.append(cursor.name)
            cursor = by_id.get(cursor.parent_id) \
                if cursor.parent_id is not None else None
        names.reverse()
        return names

    for span in spans:
        if span.start is None:
            continue
        frame = root
        for name in path_of(span):
            frame = frame.children.setdefault(name, _Frame(name))
        frame.time += _clamped_end(span, horizon) - span.start
        frame.count += 1
        frame.nbytes += span.nbytes
    return root


def render_flamegraph(source, width: int = 40) -> str:
    """Merged span tree as indented text, widest subtree first."""
    spans = [span for group in _span_groups(source) for span in group]
    root = _build_frames(spans)
    total = sum(frame.time for frame in root.children.values()) or 1.0
    lines = ["sim-time flamegraph (inclusive seconds, merged by name)"]

    def emit(frame: _Frame, depth: int) -> None:
        bar = "#" * max(1, round(width * frame.time / total))
        lines.append(f"  {'  ' * depth}{frame.name:<{30 - 2 * depth}} "
                     f"{frame.time:10.6f}s  x{frame.count:<5d} {bar}")
        for child in sorted(frame.children.values(),
                            key=lambda f: (-f.time, f.name)):
            emit(child, depth + 1)

    for frame in sorted(root.children.values(),
                        key=lambda f: (-f.time, f.name)):
        emit(frame, 0)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# per-layer breakdown
# ---------------------------------------------------------------------------

def render_layer_breakdown(source) -> str:
    """Inclusive span-time, bytes and counts per data-path layer."""
    totals: dict[str, list] = {}
    spans = [span for group in _span_groups(source) for span in group]
    horizon = _group_end(spans)
    for span in spans:
        if span.start is None:
            continue
        entry = totals.setdefault(span.layer, [0.0, 0, 0])
        entry[0] += _clamped_end(span, horizon) - span.start
        entry[1] += span.nbytes
        entry[2] += 1
    lines = ["per-layer sim-time breakdown (inclusive; concurrent spans "
             "overlap)",
             f"  {'layer':<10} {'span-seconds':>14} {'MB':>10} {'spans':>8}"]
    for layer, (seconds, nbytes, count) in sorted(
            totals.items(), key=lambda item: (-item[1][0], item[0])):
        lines.append(f"  {layer:<10} {seconds:>14.6f} "
                     f"{nbytes / MB:>10.2f} {count:>8d}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# metrics snapshot rendering
# ---------------------------------------------------------------------------

def render_metrics_snapshot(snapshot: dict) -> str:
    """A merged-session or single-registry snapshot as a text table."""
    lines = ["metrics"]

    def emit(prefix: str, component: str, fields: dict) -> None:
        for name, data in fields.items():
            value = data["value"]
            text = f"{value:g}" if isinstance(value, float) else str(value)
            label = f"{prefix}{component}/{name}"
            lines.append(f"  {label:<44} {text} {data['unit']}".rstrip())

    # A session snapshot nests {"runN": {component: {...}}}; a bare
    # registry snapshot is {component: {field: {...}}} directly.
    for key in sorted(snapshot):
        value = snapshot[key]
        if value and all("value" in v for v in value.values()):
            emit("", key, value)
        else:
            for component in sorted(value):
                emit(f"{key}:", component, value[component])
    return "\n".join(lines)

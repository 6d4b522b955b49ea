"""End-to-end tests for sim-time tracing: span trees and exporters.

One traced client_read through the full Raid2Server stack must produce
a complete, well-parented span tree: the server root, the LFS
operation under it, RAID and hardware legs under that, with no orphan
spans and every child contained in its parent's sim-time interval.
"""

import json
import random

import pytest

from repro.net import UltranetLink
from repro.obs import (NULL_TRACER, chrome_trace_json, observe,
                       render_flamegraph, render_layer_breakdown)
from repro.server import Raid2Config, Raid2Server
from repro.server.raid2 import make_sparcstation_client
from repro.sim import Simulator
from repro.units import KIB, MIB


def pattern(nbytes, seed):
    return random.Random(seed).randbytes(nbytes)


@pytest.fixture(scope="module")
def traced_story():
    """One traced write+read through the whole server, shared by tests."""
    with observe(trace=True) as session:
        sim = Simulator()
        server = Raid2Server(sim, Raid2Config.fig8_lfs())
        sim.run_process(server.setup_lfs())
        client = make_sparcstation_client(sim)
        link = UltranetLink(sim, name="link")
        payload = pattern(1 * MIB, seed=7)
        sim.run_process(server.fs.create("/f"))
        sim.run_process(server.client_write(client, link, "/f", 0, payload))
        sim.run_process(server.fs.sync())
        data = sim.run_process(
            server.client_read(client, link, "/f", 0, len(payload)))
    assert data == payload  # tracing must not corrupt the data path
    return {"sim": sim, "session": session, "payload": payload}


def _by_id(spans):
    return {span.id: span for span in spans}


def _subtree(spans, root):
    ids = _by_id(spans)
    children = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    out = []
    stack = [root]
    while stack:
        span = stack.pop()
        out.append(span)
        stack.extend(children.get(span.id, ()))
    assert all(span.id in ids for span in out)
    return out


def test_every_span_is_finished_and_well_formed(traced_story):
    spans = traced_story["sim"].tracer.spans()
    assert spans, "tracing was on but recorded nothing"
    ids = _by_id(spans)
    for span in spans:
        assert span.end is not None, f"unfinished span {span.name}"
        assert span.end >= span.start >= 0.0
        assert span.layer == span.name.split(".")[0]
        # No orphans: every parent id refers to a finished span.
        if span.parent_id is not None:
            assert span.parent_id in ids, f"orphan span {span.name}"


def test_children_nest_inside_their_parents(traced_story):
    spans = traced_story["sim"].tracer.spans()
    ids = _by_id(spans)
    tolerance = 1e-12
    for span in spans:
        if span.parent_id is None:
            continue
        parent = ids[span.parent_id]
        assert parent.start <= span.start + tolerance, \
            f"{span.name} starts before its parent {parent.name}"
        assert span.end <= parent.end + tolerance, \
            f"{span.name} ends after its parent {parent.name}"


def test_client_read_tree_covers_every_layer(traced_story):
    spans = traced_story["sim"].tracer.spans()
    roots = [span for span in spans
             if span.name == "server.client_read"]
    assert len(roots) == 1
    tree = _subtree(spans, roots[0])
    layers = {span.layer for span in tree}
    # The read path: server -> ultranet RPC + LFS -> RAID -> XBUS disk
    # paths (cougar/scsi/disk + vme + xmem) and HIPPI out to the client.
    assert {"server", "ultranet", "lfs", "raid", "xbus", "xmem",
            "cougar", "scsi", "disk", "vme", "hippi"} <= layers


def test_full_story_covers_parity_too(traced_story):
    # The write side computed parity through the XBUS engine.
    layers = {span.layer for span in traced_story["sim"].tracer.spans()}
    assert "parity" in layers
    assert "server" in layers and "lfs" in layers


def test_spans_nbytes_attribution(traced_story):
    spans = traced_story["sim"].tracer.spans()
    read_root = next(s for s in spans if s.name == "server.client_read")
    assert read_root.nbytes == len(traced_story["payload"])
    assert read_root.attrs["path"] == "/f"
    disk_bytes = sum(s.nbytes for s in spans if s.layer == "disk")
    assert disk_bytes >= len(traced_story["payload"])


def test_chrome_trace_export(traced_story):
    doc = json.loads(chrome_trace_json(traced_story["session"]))
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == len(traced_story["sim"].tracer.spans())
    for event in complete:
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
    metadata = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in metadata} == {"process_name", "thread_name"}
    # Sim-time seconds -> microseconds.
    read_root = next(s for s in traced_story["sim"].tracer.spans()
                     if s.name == "server.client_read")
    event = next(e for e in complete
                 if e["args"]["span_id"] == read_root.id)
    assert event["ts"] == pytest.approx(read_root.start * 1e6)
    assert event["dur"] == pytest.approx(read_root.duration * 1e6)


def test_text_reports_render(traced_story):
    session = traced_story["session"]
    flame = render_flamegraph(session)
    assert "server.client_read" in flame
    breakdown = render_layer_breakdown(session)
    for layer in ("disk", "scsi", "cougar", "raid", "lfs", "server"):
        assert layer in breakdown


def test_null_tracer_records_nothing():
    # Outside an observe(trace=True) session the simulator carries the
    # null tracer: no spans, no per-operation cost beyond one check.
    sim = Simulator()
    assert sim.tracer is NULL_TRACER
    assert not sim.tracer.enabled

    def body():
        with sim.tracer.span("disk.read", "d0", nbytes=512) as span:
            span.set(lba=0)
            yield sim.timeout(1.0)

    sim.run_process(body())
    assert sim.tracer.spans() == []


def test_tracing_preserves_results():
    """The same workload computes the same answer traced and untraced."""
    def run():
        sim = Simulator()
        server = Raid2Server(sim, Raid2Config.fig8_lfs())
        sim.run_process(server.setup_lfs())
        payload = pattern(256 * KIB, seed=3)
        sim.run_process(server.fs.create("/x"))
        sim.run_process(server.fs.write("/x", 0, payload))
        sim.run_process(server.fs.sync())
        data = sim.run_process(server.fs.read("/x", 0, len(payload)))
        return data, sim.now

    plain_data, plain_now = run()
    with observe(trace=True):
        traced_data, traced_now = run()
    assert traced_data == plain_data
    assert traced_now == plain_now

"""Tests for the component metrics registry and its snapshots."""

import gc
import json

from repro.obs import observe, render_metrics_snapshot
from repro.sim import Simulator
from repro.units import KIB


class _Meter:
    """A component with one plain counter."""

    def __init__(self, sim, name):
        self.count = 0
        sim.metrics.expose(name, self, {"count": "B"})


def test_sources_sharing_a_key_are_summed():
    sim = Simulator()
    a, b = _Meter(sim, "c0"), _Meter(sim, "c0")
    a.count += 3
    b.count += 4
    assert len(sim.metrics) == 1
    assert sim.metrics.snapshot() == {
        "c0": {"count": {"value": 7, "unit": "B"}}}


def test_simulator_carries_a_registry():
    sim = Simulator()
    meter = _Meter(sim, "port")
    meter.count += 4 * KIB
    # The snapshot reads the attribute when it is taken.
    assert sim.metrics.snapshot()["port"]["count"]["value"] == 4 * KIB


def test_registry_does_not_keep_a_component_alive():
    sim = Simulator()
    meter = _Meter(sim, "gone")
    meter.count += 1
    del meter
    gc.collect()
    assert sim.metrics.snapshot() == {
        "gone": {"count": {"value": 0, "unit": "B"}}}


def _run_workload():
    """A small deterministic workload: a counter and a busy monitor."""
    from repro.sim import BusyMonitor

    sim = Simulator()
    stream = _Meter(sim, "stream")
    busy = BusyMonitor(sim, name="port")

    def body():
        for _ in range(5):
            busy.enter()
            yield sim.timeout(0.25)
            busy.exit()
            stream.count += 64 * KIB
            yield sim.timeout(0.05)

    sim.run_process(body())
    return sim.metrics.snapshot()


def test_snapshot_deterministic_across_identical_runs():
    first = _run_workload()
    second = _run_workload()
    assert first == second
    assert first["port"]["busy_time"] == {"value": 1.25, "unit": "s"}
    # Byte-identical when serialized, key order included.
    assert json.dumps(first, sort_keys=False) == \
        json.dumps(second, sort_keys=False)


def test_session_collects_per_run_snapshots():
    with observe() as session:
        _run_workload()
        _run_workload()
    # The session keeps each run's components alive for its snapshot.
    gc.collect()
    snapshot = session.metrics_snapshot()
    assert sorted(snapshot) == ["run0", "run1"]
    assert snapshot["run0"] == snapshot["run1"]
    assert snapshot["run0"]["stream"]["count"]["value"] == 5 * 64 * KIB
    rendered = render_metrics_snapshot(snapshot)
    assert "run0:stream/count" in rendered and "port/busy_time" in rendered


def test_observe_without_trace_keeps_null_tracer():
    with observe() as session:
        sim = Simulator()
    assert not sim.tracer.enabled
    assert session.spans() == []
    assert len(sim.metrics) == 0


def test_every_hardware_layer_is_in_the_registry():
    """Table 1's measurement lists each layer the paper blames for the
    shortfall (Section 2.3), not only RAID, Cougar and disk counts."""
    from repro.experiments import table1_peak_sequential as table1

    with observe() as session:
        table1.run(quick=True)
    snapshot = session.metrics_snapshot()
    components = {component for run in snapshot.values() for component in run}
    board = "raid2.xbus0"
    expected = {
        f"{board}.c0.s0.bus", f"{board}.c0.s1.bus",  # SCSI strings
        f"{board}.c0.bus", f"{board}.c4.bus",  # Cougar buses
        f"{board}.vme0", f"{board}.vme3", f"{board}.link",  # VME ports
        f"{board}.mem.banks",  # XBUS memory
        f"{board}.hippis.port", f"{board}.hippid.port",  # HIPPI
        f"{board}.xor.port",  # parity engine
        f"{board}.d0.0.0.busy",  # a disk's busy time
        "raid2.host.vme",  # host backplane
    }
    assert expected <= components, sorted(expected - components)
    # The values are the layers' own: the strings really were busy.
    assert all(run[f"{board}.c0.s0.bus"]["busy_time"]["value"] > 0
               for run in snapshot.values())

"""Property-based tests for the Log-Structured File System.

A shadow model (plain dicts of bytes) tracks what the file system
should contain under arbitrary operation sequences; hypothesis drives
the sequences.  Separate properties cover durability (everything
before the last checkpoint/sync survives a crash) and cleaner safety
(cleaning never changes observable contents).
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.hw.specs import LFS_SPEC
from repro.lfs import LogStructuredFS
from repro.sim import Simulator
from repro.testing import MemoryDevice
from repro.units import KIB, MIB

FAST_SPEC = dataclasses.replace(LFS_SPEC, segment_bytes=64 * KIB,
                                fs_overhead_s=0.0, small_write_overhead_s=0.0)

FILES = ["/f0", "/f1", "/f2"]

operations = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.sampled_from(FILES),
                  st.integers(0, 60_000), st.integers(1, 16_000),
                  st.integers(0, 255)),
        st.tuples(st.just("unlink"), st.sampled_from(FILES)),
        st.tuples(st.just("rename"), st.sampled_from(FILES),
                  st.sampled_from(FILES)),
        st.tuples(st.just("truncate"), st.sampled_from(FILES),
                  st.integers(0, 30_000)),
        st.tuples(st.just("sync"),),
        st.tuples(st.just("checkpoint"),),
        st.tuples(st.just("clean"),),
    ),
    min_size=1, max_size=14,
)


def fresh_fs():
    sim = Simulator()
    device = MemoryDevice(sim, 16 * MIB)
    fs = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=64)
    sim.run_process(fs.format())
    return sim, device, fs


def apply_op(sim, fs, shadow, op):
    """Apply one op to both the FS and the shadow model."""
    kind = op[0]
    if kind == "write":
        _k, path, offset, length, fill = op
        payload = bytes([fill]) * length
        if path not in shadow:
            sim.run_process(fs.create(path))
            shadow[path] = bytearray()
        data = shadow[path]
        if len(data) < offset:
            data.extend(bytes(offset - len(data)))
        if len(data) < offset + length:
            data.extend(bytes(offset + length - len(data)))
        data[offset:offset + length] = payload
        sim.run_process(fs.write(path, offset, payload))
    elif kind == "unlink":
        _k, path = op
        if path in shadow:
            del shadow[path]
            sim.run_process(fs.unlink(path))
    elif kind == "rename":
        _k, src, dst = op
        if src in shadow and src != dst:
            shadow[dst] = shadow.pop(src)
            sim.run_process(fs.rename(src, dst))
    elif kind == "truncate":
        _k, path, size = op
        if path in shadow:
            data = shadow[path]
            if size < len(data):
                del data[size:]
            else:
                data.extend(bytes(size - len(data)))
            sim.run_process(fs.truncate(path, size))
    elif kind == "sync":
        sim.run_process(fs.sync())
    elif kind == "checkpoint":
        sim.run_process(fs.checkpoint())
    elif kind == "clean":
        sim.run_process(fs.clean(max_segments=2))
    else:  # pragma: no cover
        raise AssertionError(op)


def check_matches_shadow(sim, fs, shadow):
    for path in FILES:
        if path in shadow:
            expected = bytes(shadow[path])
            attrs = sim.run_process(fs.stat(path))
            assert attrs.size == len(expected)
            got = sim.run_process(fs.read(path, 0, len(expected) + 10))
            assert got == expected
        else:
            assert sim.run_process(fs.exists(path)) is False


@given(ops=operations)
@settings(max_examples=40, deadline=None)
def test_lfs_matches_shadow_model(ops):
    sim, _device, fs = fresh_fs()
    shadow: dict[str, bytearray] = {}
    for op in ops:
        apply_op(sim, fs, shadow, op)
    check_matches_shadow(sim, fs, shadow)


@given(ops=operations)
@settings(max_examples=25, deadline=None)
def test_lfs_remount_preserves_everything(ops):
    """After a clean unmount + remount, all state survives exactly."""
    sim, device, fs = fresh_fs()
    shadow: dict[str, bytearray] = {}
    for op in ops:
        apply_op(sim, fs, shadow, op)
    sim.run_process(fs.unmount())
    fs2 = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=64)
    sim.run_process(fs2.mount())
    check_matches_shadow(sim, fs2, shadow)


@given(ops=operations)
@settings(max_examples=25, deadline=None)
def test_lfs_crash_after_sync_is_durable(ops):
    """Data present at the last sync survives a crash (roll-forward)."""
    sim, device, fs = fresh_fs()
    shadow: dict[str, bytearray] = {}
    for op in ops:
        apply_op(sim, fs, shadow, op)
    sim.run_process(fs.sync())
    fs.crash()
    fs2 = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=64)
    sim.run_process(fs2.mount())
    check_matches_shadow(sim, fs2, shadow)


@given(ops=operations)
@settings(max_examples=20, deadline=None)
def test_cleaner_never_changes_observable_state(ops):
    sim, _device, fs = fresh_fs()
    shadow: dict[str, bytearray] = {}
    for op in ops:
        if op[0] == "clean":
            continue
        apply_op(sim, fs, shadow, op)
    sim.run_process(fs.sync())
    sim.run_process(fs.clean(max_segments=8))
    check_matches_shadow(sim, fs, shadow)


@given(ops=operations)
@settings(max_examples=20, deadline=None)
def test_usage_accounting_never_negative_and_rebuildable(ops):
    from repro.lfs import recovery

    sim, _device, fs = fresh_fs()
    shadow: dict[str, bytearray] = {}
    for op in ops:
        apply_op(sim, fs, shadow, op)
    for entry in fs.usage:
        assert entry.live_bytes >= 0
    sim.run_process(fs.checkpoint())
    incremental = [entry.live_bytes for entry in fs.usage]
    recovery.rebuild_usage(fs, recovery.scan_log(fs))
    rebuilt = [entry.live_bytes for entry in fs.usage]
    assert rebuilt == incremental

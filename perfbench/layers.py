"""Observing each layer from outside: wrappers, event count, profile.

Nothing here changes ``src/``.  :class:`Instrument` swaps the public
generator methods of each layer for wrappers that count calls and
bytes and sum the inclusive simulated time, and hooks
``heapq.heappush`` to count scheduled events.  A wrapper only adds a
``yield from`` frame, so it schedules nothing and the simulated
results of a traced round equal those of a plain one.

:func:`host_shares` groups a cProfile pass by layer.  Self time of a
function in a layer module counts for that layer; self time of
anything else (builtins, numpy, the stdlib, ``repro.obs``) is handed
to the layers of its callers in proportion to the time each caller
spent in it, so the shares always sum to one.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import inspect
import itertools
import pstats
from dataclasses import dataclass

#: Host-time layers, named after the repository's modules.  ``parity``
#: is the whole XBUS board layer (xbus_board, xbus_memory, vme,
#: parity); ``bench`` is this benchmark's own request loop and shadow
#: checks.
LAYERS = ("sim", "disk", "cougar", "parity", "net", "raid", "lfs",
          "hostcache", "ffs", "faults", "server", "bench", "other")

#: Path fragment -> layer; first match wins.
MODULE_LAYERS = (
    ("repro/sim/", "sim"),
    ("repro/hw/disk.py", "disk"),
    ("repro/hw/cougar.py", "cougar"),
    ("repro/hw/scsi.py", "cougar"),
    ("repro/hw/xbus_board.py", "parity"),
    ("repro/hw/xbus_memory.py", "parity"),
    ("repro/hw/vme.py", "parity"),
    ("repro/hw/parity.py", "parity"),
    ("repro/hw/hippi.py", "net"),
    ("repro/hw/ethernet.py", "net"),
    ("repro/net/", "net"),
    ("repro/raid/", "raid"),
    ("repro/lfs/", "lfs"),
    ("repro/host/cache.py", "hostcache"),
    ("repro/ffs/", "ffs"),
    ("repro/faults/", "faults"),
    ("repro/server/", "server"),
    ("repro/host/workstation.py", "server"),
    ("perfbench/", "bench"),
)


def _nbytes_arg(index: int):
    return lambda args: args[index]


def _len_arg(index: int):
    return lambda args: len(args[index])


def _sectors_arg(index: int):
    return lambda args: args[index] * 512


def _zero(_args) -> int:
    return 0


#: (layer, module, class, method, bytes-of-args) for every wrapped
#: public entry point.
ENTRY_POINTS = (
    ("disk", "repro.hw.disk", "DiskDrive", "read", _sectors_arg(1)),
    ("disk", "repro.hw.disk", "DiskDrive", "write", _len_arg(1)),
    ("cougar", "repro.hw.cougar", "CougarController", "read",
     _sectors_arg(2)),
    ("cougar", "repro.hw.cougar", "CougarController", "write", _len_arg(2)),
    ("parity", "repro.hw.xbus_board", "XbusBoard", "compute_parity",
     lambda args: sum(len(block) for block in args[0])),
    ("parity", "repro.hw.xbus_board", "XbusBoard", "to_host",
     _nbytes_arg(0)),
    ("parity", "repro.hw.xbus_board", "XbusBoard", "from_host",
     _nbytes_arg(0)),
    ("net", "repro.hw.xbus_board", "XbusBoard", "send_hippi",
     _nbytes_arg(0)),
    ("net", "repro.hw.xbus_board", "XbusBoard", "receive_hippi",
     _nbytes_arg(0)),
    ("net", "repro.hw.ethernet", "Ethernet", "send", _nbytes_arg(0)),
    ("net", "repro.net.ultranet", "UltranetLink", "rpc", _zero),
    ("net", "repro.net.ultranet", "UltranetLink", "data", _nbytes_arg(0)),
    ("raid", "repro.raid.controller", "Raid5Controller", "read",
     _nbytes_arg(1)),
    ("raid", "repro.raid.controller", "Raid5Controller", "write",
     _len_arg(1)),
    ("raid", "repro.raid.controller", "Raid5Controller", "rebuild", _zero),
    ("lfs", "repro.lfs.fs", "LogStructuredFS", "read", _nbytes_arg(2)),
    ("lfs", "repro.lfs.fs", "LogStructuredFS", "write", _len_arg(2)),
    ("lfs", "repro.lfs.fs", "LogStructuredFS", "sync", _zero),
    ("lfs", "repro.lfs.fs", "LogStructuredFS", "checkpoint", _zero),
    ("lfs", "repro.lfs.fs", "LogStructuredFS", "clean", _zero),
    ("lfs", "repro.lfs.fs", "LogStructuredFS", "mount", _zero),
    ("ffs", "repro.ffs.fs", "UpdateInPlaceFS", "write", _len_arg(2)),
    ("ffs", "repro.ffs.fs", "UpdateInPlaceFS", "fsck", _zero),
    ("hostcache", "repro.host.cache", "LruBlockCache", "get", _zero),
    ("hostcache", "repro.host.cache", "LruBlockCache", "put", _len_arg(1)),
)


@dataclass
class CallStat:
    """What one wrapped entry point saw during a round."""

    layer: str
    calls: int = 0
    nbytes: int = 0
    #: Inclusive simulated seconds, summed over (possibly overlapping)
    #: calls.
    sim_s: float = 0.0
    #: Disk operations issued while a call was in progress.
    disk_ops: int = 0


class Instrument:
    """Context manager installing the wrappers and the event counter."""

    def __init__(self):
        self.stats: dict[str, CallStat] = {}
        #: (entry point, id(instance)) -> bytes, for per-object ratios.
        self.bytes_by_object: dict[tuple[str, int], int] = {}
        self.disk_ops = 0
        self.events = 0
        self._saved: list[tuple[type, str, object]] = []

    def __enter__(self) -> "Instrument":
        for layer, module, cls_name, method, nbytes in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = getattr(cls, method)
            key = f"{cls_name}.{method}"
            self.stats[key] = CallStat(layer)
            self._saved.append((cls, method, cls.__dict__.get(method)))
            setattr(cls, method, self._wrap(original, key, nbytes,
                                            counts_disk_op=layer == "disk"))
        ticks = itertools.count()
        push = heapq.heappush
        self._ticks = ticks
        self._push = push

        def counting_push(heap, item):
            next(ticks)
            return push(heap, item)

        heapq.heappush = counting_push
        return self

    def __exit__(self, *exc_info) -> None:
        heapq.heappush = self._push
        self.events = next(self._ticks)
        for cls, method, own in reversed(self._saved):
            if own is None:  # inherited: drop the override
                delattr(cls, method)
            else:
                setattr(cls, method, own)
        self._saved.clear()

    def _wrap(self, original, key: str, nbytes, counts_disk_op: bool):
        stat = self.stats[key]
        by_object = self.bytes_by_object
        instrument = self

        if not inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def plain(obj, *args, **kwargs):
                stat.calls += 1
                size = nbytes(args)
                stat.nbytes += size
                object_key = (key, id(obj))
                by_object[object_key] = by_object.get(object_key, 0) + size
                return original(obj, *args, **kwargs)
            return plain

        @functools.wraps(original)
        def generator(obj, *args, **kwargs):
            sim = obj.sim
            start = sim.now
            disk_ops = instrument.disk_ops
            stat.calls += 1
            size = nbytes(args)
            stat.nbytes += size
            object_key = (key, id(obj))
            by_object[object_key] = by_object.get(object_key, 0) + size
            if counts_disk_op:
                instrument.disk_ops += 1
            try:
                return (yield from original(obj, *args, **kwargs))
            finally:
                stat.sim_s += sim.now - start
                stat.disk_ops += instrument.disk_ops - disk_ops

        return generator

    def object_bytes(self, key: str, obj) -> int:
        return self.bytes_by_object.get((key, id(obj)), 0)

    def layer_totals(self) -> dict[str, CallStat]:
        totals: dict[str, CallStat] = {}
        for stat in self.stats.values():
            total = totals.setdefault(stat.layer, CallStat(stat.layer))
            total.calls += stat.calls
            total.nbytes += stat.nbytes
            total.sim_s += stat.sim_s
        return totals


def _layer_of_file(filename: str) -> str | None:
    path = filename.replace("\\", "/")
    for fragment, layer in MODULE_LAYERS:
        if fragment in path:
            return layer
    return None


def host_shares(profile) -> dict[str, float]:
    """Share of profiled self time per layer; sums to 1 over ``LAYERS``."""
    stats = pstats.Stats(profile).stats
    memo: dict[tuple, dict[str, float]] = {}

    def resolve(func: tuple, visiting: frozenset) -> dict[str, float]:
        own = _layer_of_file(func[0])
        if own is not None:
            return {own: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {caller: edge[2] for caller, edge in callers.items()
                   if caller not in visiting}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: edge[1] for caller, edge in callers.items()
                       if caller not in visiting}
            total = sum(weights.values())
        if total <= 0:
            return {"other": 1.0}
        shares: dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, part in resolve(caller, visiting | {func}).items():
                shares[layer] = shares.get(layer, 0.0) + part * weight / total
        if not visiting:
            memo[func] = shares
        return shares

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, self_time, _ct, _callers) in stats.items():
        if self_time <= 0:
            continue
        for layer, part in resolve(func, frozenset()).items():
            totals[layer] += self_time * part
    grand = sum(totals.values())
    return {layer: (value / grand if grand > 0 else 0.0)
            for layer, value in totals.items()}

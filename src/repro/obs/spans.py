"""Where the data path records spans: one table, installed per session.

Component code carries no tracing calls.  Each :class:`SpanSite` names
a generator method (or a module-level generator function, whose first
argument then plays ``self``), the span it records, and the span's
keyword arguments as a function of the call's arguments, taken under
the method's own parameter names (the component defaults to the first
argument's ``name``).  :func:`install` swaps every site for a
``functools.wraps`` wrapper that opens the span around the original
body; :func:`uninstall` puts the original function objects back.
:func:`repro.obs.session.observe` does both, so spans are recorded only
while an ``observe(trace=True)`` session is open.

A wrapper keeps the original's ``__name__``, since processes are named
after their generators and the determinism fingerprint hashes those
names; it adds a ``yield from`` frame and never schedules.
"""

from __future__ import annotations

import functools
import importlib
from typing import Any, Callable, NamedTuple, Union

from repro.units import SECTOR_SIZE

__all__ = ["SpanSite", "SPAN_SITES", "install", "uninstall"]


class SpanSite(NamedTuple):
    """One traced generator: ``module[:Class]``, method, span, fields."""

    owner_path: str
    method: str
    #: The span name, or a function of the arguments giving it (or
    #: ``None``: this call records no span).
    name: Union[str, Callable[..., Any]]
    fields: Callable[..., dict] = lambda *_args, **_kwargs: {}

    def owner(self) -> Any:
        """The class (or module) whose attribute the site swaps."""
        module, _, cls = self.owner_path.partition(":")
        owner = importlib.import_module(module)
        return getattr(owner, cls) if cls else owner


def _nbytes(_obj, nbytes, *_args, **_kwargs) -> dict:
    return {"nbytes": nbytes}


def _nbytes_at(_obj, offset, nbytes, *_args) -> dict:
    return {"nbytes": nbytes}


def _sectors(_obj, lba, nsectors) -> dict:
    return {"nbytes": nsectors * SECTOR_SIZE}


def _data(_obj, data) -> dict:
    return {"nbytes": len(data)}


def _traffic(blocks) -> int:
    return sum(len(block) for block in blocks) + len(blocks[0])


def _raid_read(_raid, offset, nbytes) -> dict:
    return {"nbytes": nbytes, "offset": offset}


def _raid_write(_raid, offset, data) -> dict:
    return {"nbytes": len(data), "offset": offset}


def _raid_rebuild(raid, disk_index, max_rows=None) -> dict:
    rows = raid.layout.rows
    return {"disk": disk_index,
            "rows": rows if max_rows is None else min(rows, max_rows)}


def _raid5_write_row(raid, row, pieces, offset, data) -> dict:
    covered = (pieces[-1].logical_offset + pieces[-1].nbytes
               - pieces[0].logical_offset)
    layout = raid.layout
    if covered == layout.data_units_per_row * layout.stripe_unit_bytes:
        return {"nbytes": covered, "row": row, "strategy": "full_stripe"}
    return {"nbytes": covered, "row": row}


def _cleaner_clean(_fs, max_segments=1, policy=None) -> dict:
    from repro.lfs.cleaner import CleanerPolicy
    return {"max_segments": max_segments,
            "policy": (policy or CleanerPolicy.COST_BENEFIT).value}


_RAID = "repro.raid.controller:"
_XBUS = "repro.hw.xbus_board:"
_SERVER = "repro.server.raid2:Raid2Server"

#: Every traced generator of the data path, bottom up.
SPAN_SITES = (
    SpanSite("repro.hw.disk:DiskDrive", "read", "disk.read",
             lambda _d, lba, nsectors: {"nbytes": nsectors * SECTOR_SIZE,
                                        "lba": lba}),
    SpanSite("repro.hw.disk:DiskDrive", "write", "disk.write",
             lambda _d, lba, data: {"nbytes": len(data), "lba": lba}),
    # The SCSI string, Cougar bus and XBUS memory legs are bus channels'
    # own transfers: such a channel carries its span name, and is named
    # "<owner>.<bus>".
    SpanSite("repro.sim.channel:BandwidthChannel", "transfer",
             lambda channel, nbytes: channel.span,
             lambda channel, nbytes: {
                 "component": channel.name.rpartition(".")[0],
                 "nbytes": nbytes}),
    SpanSite("repro.hw.cougar:CougarController", "read", "cougar.read",
             lambda cougar, disk, lba, nsectors: _sectors(cougar, lba,
                                                          nsectors)),
    SpanSite("repro.hw.cougar:CougarController", "write", "cougar.write",
             lambda cougar, disk, lba, data: _data(cougar, data)),
    SpanSite("repro.hw.vme:VmePort", "transfer", "vme.transfer",
             lambda _port, nbytes, direction: {
                 "nbytes": nbytes, "direction": direction.value}),
    SpanSite("repro.hw.hippi:HippiPort", "send", "hippi.send",
             lambda _port, nbytes, packets=1: {"nbytes": nbytes,
                                               "packets": packets}),
    SpanSite("repro.hw.parity:ParityEngine", "compute", "parity.compute",
             lambda _engine, blocks: {"nbytes": _traffic(blocks),
                                      "blocks": len(blocks)}),
    SpanSite(_XBUS + "XbusDiskPath", "read", "xbus.disk_read", _sectors),
    SpanSite(_XBUS + "XbusDiskPath", "write", "xbus.disk_write",
             lambda path, lba, data: _data(path, data)),
    SpanSite(_XBUS + "XbusBoard", "send_hippi", "xbus.send_hippi", _nbytes),
    SpanSite(_XBUS + "XbusBoard", "receive_hippi", "xbus.receive_hippi",
             _nbytes),
    SpanSite(_XBUS + "XbusBoard", "hippi_loopback", "xbus.hippi_loopback",
             _nbytes),
    SpanSite(_XBUS + "XbusBoard", "to_host", "xbus.to_host", _nbytes),
    SpanSite(_XBUS + "XbusBoard", "from_host", "xbus.from_host", _nbytes),
    SpanSite(_XBUS + "XbusBoard", "compute_parity", "xbus.parity",
             lambda _board, blocks: {"nbytes": _traffic(blocks)}),
    SpanSite("repro.net.ultranet:UltranetLink", "rpc", "ultranet.rpc"),
    SpanSite("repro.net.ultranet:UltranetLink", "data", "ultranet.data",
             _nbytes),
    SpanSite(_RAID + "_BaseController", "read", "raid.read", _raid_read),
    SpanSite(_RAID + "_BaseController", "write", "raid.write", _raid_write),
    SpanSite(_RAID + "_BaseController", "rebuild", "raid.rebuild",
             _raid_rebuild),
    SpanSite(_RAID + "Raid0Controller", "write", "raid.write", _raid_write),
    SpanSite(_RAID + "Raid5Controller", "_write_row", "raid.write_row",
             _raid5_write_row),
    SpanSite(_RAID + "Raid3Controller", "read", "raid.read", _raid_read),
    SpanSite(_RAID + "Raid3Controller", "write", "raid.write", _raid_write),
    # Every public LFS operation runs under _locked, which names it.
    SpanSite("repro.lfs.fs:LogStructuredFS", "_locked",
             lambda _fs, operation, op="op", nbytes=0: f"lfs.{op}",
             lambda _fs, operation, op="op", nbytes=0: {"nbytes": nbytes}),
    SpanSite("repro.lfs.cleaner", "clean", "cleaner.clean", _cleaner_clean),
    SpanSite("repro.lfs.cleaner", "_evacuate", "cleaner.evacuate",
             lambda _fs, victim: {"segment": victim}),
    SpanSite(_SERVER, "hw_read", "server.hw_read", _nbytes_at),
    SpanSite(_SERVER, "hw_write", "server.hw_write", _nbytes_at),
    SpanSite(_SERVER, "hw_read_through_host", "server.hw_read_through_host",
             _nbytes_at),
    SpanSite(_SERVER, "client_read", "server.client_read",
             lambda _s, client, link, path, offset, nbytes: {
                 "nbytes": nbytes, "path": path}),
    SpanSite(_SERVER, "client_write", "server.client_write",
             lambda _s, client, link, path, offset, data: {
                 "nbytes": len(data), "path": path}),
    SpanSite(_SERVER, "ethernet_read", "server.ethernet_read",
             lambda _s, path, offset, nbytes: {"nbytes": nbytes,
                                               "path": path}),
    SpanSite(_SERVER, "ethernet_write", "server.ethernet_write",
             lambda _s, path, offset, data: {"nbytes": len(data),
                                             "path": path}),
)


def _traced(original: Callable, site: SpanSite) -> Callable:
    """``original`` with ``site``'s span around its body."""
    name, fields = site.name, site.fields

    @functools.wraps(original)
    def traced(obj, *args, **kwargs):
        span = name if isinstance(name, str) else name(obj, *args, **kwargs)
        if span is None:
            return (yield from original(obj, *args, **kwargs))
        span_kwargs = {"component": obj.name,
                       **fields(obj, *args, **kwargs)}
        with obj.sim.tracer.span(span, **span_kwargs):
            return (yield from original(obj, *args, **kwargs))

    return traced


#: (owner, attribute, original) for every installed wrapper.
_installed: list[tuple[Any, str, Any]] = []
_depth = 0


def install() -> None:
    """Swap every site for its span-recording wrapper.  Calls nest:
    only the outermost install swaps, and its uninstall restores."""
    global _depth
    _depth += 1
    if _depth == 1:
        for site in SPAN_SITES:
            owner = site.owner()
            original = vars(owner)[site.method]
            _installed.append((owner, site.method, original))
            setattr(owner, site.method, _traced(original, site))


def uninstall() -> None:
    """Undo the matching :func:`install`: the originals are back."""
    global _depth
    _depth -= 1
    while not _depth and _installed:
        owner, method, original = _installed.pop()
        setattr(owner, method, original)

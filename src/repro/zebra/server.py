"""A Zebra storage server: a RAID-II node that stores opaque fragments.

"The servers in Zebra perform very simple operations, merely storing
blocks of the logical log of files without examining the content of
the blocks.  Little communication would be needed between the XBUS
board and the host workstation, allowing data to flow between the
network and the disk array efficiently" (Section 5.2).

Each server wraps a full RAID-II instance: fragments arrive over the
HIPPI destination port into XBUS memory and are appended sequentially
to the server's RAID-5 array; fetches read the array and stream out
the HIPPI source port.  The fragment index (client, stripe, position)
-> extent is kept in server memory — Zebra's real servers logged it;
index durability is outside this reproduction's scope and noted in
DESIGN.md.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import HardwareError, ProtocolError
from repro.server import Raid2Config, Raid2Server
from repro.sim import Simulator

FragmentKey = tuple[int, int, int]  # (client_id, stripe_index, position)


class ZebraStorageServer:
    """One storage node of a Zebra ensemble."""

    def __init__(self, sim: Simulator, config: Optional[Raid2Config] = None,
                 name: str = "zserver"):
        self.sim = sim
        self.name = name
        self.node = Raid2Server(sim, config or Raid2Config.fig8_lfs(),
                                name=name)
        self._index: dict[FragmentKey, tuple[int, int]] = {}
        self._append_offset = 0
        self.failed = False
        self.fragments_stored = 0
        self.fragments_served = 0
        sim.metrics.expose(name, self, {"fragments_stored": "",
                                        "fragments_served": ""})

    @property
    def capacity_bytes(self) -> int:
        return self.node.raid.capacity_bytes

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Take the whole server offline (crash / network partition)."""
        self.failed = True

    def restore(self) -> None:
        self.failed = False

    # ------------------------------------------------------------------
    def store(self, key: FragmentKey, data: bytes):
        """Process: receive one fragment over HIPPI and append it."""
        if self.failed:
            raise ProtocolError(f"{self.name} is offline")
        if len(data) % 512:
            raise HardwareError(
                f"fragment length {len(data)} is not sector-aligned")
        if key in self._index:
            raise ProtocolError(f"fragment {key} already stored")
        if self._append_offset + len(data) > self.capacity_bytes:
            raise HardwareError(f"{self.name}: fragment store full")
        offset = self._append_offset
        self._append_offset += len(data)
        yield self.sim.fork([self.node.board.receive_hippi(len(data)),
                             self.node.raid.write(offset, data)])
        self._index[key] = (offset, len(data))
        self.fragments_stored += 1
        return None

    def fetch(self, key: FragmentKey):
        """Process: read one fragment and stream it out over HIPPI."""
        if self.failed:
            raise ProtocolError(f"{self.name} is offline")
        extent = self._index.get(key)
        if extent is None:
            raise ProtocolError(f"{self.name}: no fragment {key}")
        offset, length = extent
        values = yield self.sim.fork([self.node.raid.read(offset, length),
                                      self.node.board.send_hippi(length)])
        self.fragments_served += 1
        return values[0]

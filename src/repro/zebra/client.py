"""The Zebra client: per-client log striping with rotating parity.

The client batches all of its writes into an append-only log, cuts the
log into *stripes* of ``nservers - 1`` data fragments plus one parity
fragment, and spreads each stripe across the storage servers (parity
placement rotating per stripe, RAID-5 style).  Because the log is
append-only, parity is always computed over fresh data — "small writes
and parity updates are avoided" (Section 5.2) — and the loss of any
single storage server is survivable: missing fragments are rebuilt by
XOR from the stripe's survivors.

File metadata (the block map: file block -> log position) lives with
the client, as in Zebra's file manager; its durability is out of scope
here (see DESIGN.md).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import FileNotFoundFsError, ProtocolError, RaidError
from repro.hw.parity import xor_blocks
from repro.sim import Simulator
from repro.units import KIB
from repro.zebra.server import ZebraStorageServer

BLOCK = 4 * KIB


class ZebraClient:
    """One client's striped log across a set of storage servers."""

    def __init__(self, sim: Simulator,
                 servers: Sequence[ZebraStorageServer],
                 client_id: int = 0, fragment_bytes: int = 256 * KIB,
                 name: str = "zebra"):
        if len(servers) < 3:
            raise RaidError(
                f"Zebra needs >= 3 storage servers for parity striping, "
                f"got {len(servers)}")
        if fragment_bytes % BLOCK:
            raise RaidError(
                f"fragment size {fragment_bytes} must be a multiple of "
                f"the {BLOCK}-byte block")
        self.sim = sim
        self.servers = list(servers)
        self.client_id = client_id
        self.fragment_bytes = fragment_bytes
        self.name = name

        self._nstripe_data = len(servers) - 1
        self._stripe_data_bytes = self._nstripe_data * fragment_bytes
        self._stripe_index = 0
        self._buffer = bytearray()
        #: (file, block index) -> (stripe, byte offset within the
        #: stripe's data region)
        self._block_map: dict[tuple[str, int], tuple[int, int]] = {}
        self._sizes: dict[str, int] = {}
        self.stripes_flushed = 0
        self.fragments_rebuilt = 0
        sim.metrics.expose(name, self, {"stripes_flushed": "",
                                        "fragments_rebuilt": ""})

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def parity_server(self, stripe: int) -> int:
        return stripe % len(self.servers)

    def data_server(self, stripe: int, position: int) -> int:
        """Server index holding data fragment ``position`` of ``stripe``."""
        parity = self.parity_server(stripe)
        candidates = [index for index in range(len(self.servers))
                      if index != parity]
        return candidates[position]

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------
    def create(self, path: str) -> None:
        if path in self._sizes:
            raise ProtocolError(f"{path} already exists")
        self._sizes[path] = 0

    def exists(self, path: str) -> bool:
        return path in self._sizes

    def size_of(self, path: str) -> int:
        if path not in self._sizes:
            raise FileNotFoundFsError(path)
        return self._sizes[path]

    def delete(self, path: str) -> None:
        if path not in self._sizes:
            raise FileNotFoundFsError(path)
        del self._sizes[path]
        for key in [key for key in self._block_map if key[0] == path]:
            del self._block_map[key]

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def write(self, path: str, offset: int, data: bytes):
        """Process: append ``data`` to the client log at file ``offset``."""
        if path not in self._sizes:
            raise FileNotFoundFsError(path)
        end = offset + len(data)
        first = offset // BLOCK
        last = (end - 1) // BLOCK if data else first - 1
        for bidx in range(first, last + 1):
            block_start = bidx * BLOCK
            lo = max(offset, block_start)
            hi = min(end, block_start + BLOCK)
            piece = data[lo - offset:hi - offset]
            if hi - lo < BLOCK:
                old = yield from self._read_block(path, bidx)
                merged = bytearray(old)
                merged[lo - block_start:hi - block_start] = piece
                piece = bytes(merged)
            yield from self._append_block(path, bidx, piece)
        self._sizes[path] = max(self._sizes[path], end)
        return None

    def _read_block(self, path: str, bidx: int):
        """Process: fetch one whole file block (zeros if unwritten)."""
        location = self._block_map.get((path, bidx))
        if location is None:
            return bytes(BLOCK)
        stripe, position = location
        if stripe == self._stripe_index:
            return bytes(self._buffer[position:position + BLOCK])
        fragment = yield from self._fetch_fragment(
            stripe, position // self.fragment_bytes)
        inside = position % self.fragment_bytes
        return fragment[inside:inside + BLOCK]

    def _append_block(self, path: str, bidx: int, block: bytes):
        # Rewriting a block that is still buffered replaces it in place
        # (the same absorption LFS's segment buffer provides).
        location = self._block_map.get((path, bidx))
        if location is not None and location[0] == self._stripe_index:
            position = location[1]
            self._buffer[position:position + BLOCK] = block
            return None
        if len(self._buffer) + BLOCK > self._stripe_data_bytes:
            yield from self._flush_stripe()
        position = len(self._buffer)
        self._buffer.extend(block)
        self._block_map[(path, bidx)] = (self._stripe_index, position)
        return None

    def _flush_stripe(self):
        """Process: pad, cut into fragments, store data + parity."""
        if not self._buffer:
            return None
        self._buffer.extend(bytes(self._stripe_data_bytes
                                  - len(self._buffer)))
        stripe = self._stripe_index
        fragments = [
            bytes(self._buffer[index * self.fragment_bytes:
                               (index + 1) * self.fragment_bytes])
            for index in range(self._nstripe_data)
        ]
        parity = xor_blocks(fragments)
        stores = []
        for position, fragment in enumerate(fragments):
            server = self.servers[self.data_server(stripe, position)]
            stores.append(
                server.store((self.client_id, stripe, position), fragment))
        parity_node = self.servers[self.parity_server(stripe)]
        stores.append(parity_node.store(
            (self.client_id, stripe, self._nstripe_data), parity))
        yield self.sim.fork(stores)
        self._stripe_index += 1
        self._buffer = bytearray()
        self.stripes_flushed += 1
        return None

    def sync(self):
        """Process: push the partial stripe out (zero-padded)."""
        yield from self._flush_stripe()
        return None

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def read(self, path: str, offset: int, nbytes: int):
        """Process: read up to ``nbytes`` at ``offset`` (clamped at EOF)."""
        size = self.size_of(path)
        if offset >= size or nbytes <= 0:
            return b""
        nbytes = min(nbytes, size - offset)
        first = offset // BLOCK
        last = (offset + nbytes - 1) // BLOCK

        # Which flushed fragments do we need?
        needed: dict[tuple[int, int], None] = {}
        for bidx in range(first, last + 1):
            location = self._block_map.get((path, bidx))
            if location is None:
                continue
            stripe, position = location
            if stripe == self._stripe_index:
                continue  # still in the client buffer
            needed[(stripe, position // self.fragment_bytes)] = None

        fetched: dict[tuple[int, int], bytes] = {}
        if needed:
            values = yield self.sim.fork(
                [self._fetch_fragment(*key) for key in needed])
            fetched = dict(zip(needed, values))

        out = bytearray((last - first + 1) * BLOCK)
        for bidx in range(first, last + 1):
            location = self._block_map.get((path, bidx))
            if location is None:
                continue  # hole: zeros
            stripe, position = location
            at = (bidx - first) * BLOCK
            if stripe == self._stripe_index:
                out[at:at + BLOCK] = self._buffer[position:position + BLOCK]
                continue
            fragment = fetched[(stripe, position // self.fragment_bytes)]
            inside = position % self.fragment_bytes
            out[at:at + BLOCK] = fragment[inside:inside + BLOCK]
        start = offset - first * BLOCK
        return bytes(out[start:start + nbytes])

    def _fetch_fragment(self, stripe: int, position: int):
        """Process: fetch one data fragment, reconstructing if its
        server is down."""
        key = (self.client_id, stripe, position)
        server = self.servers[self.data_server(stripe, position)]
        if not server.failed:
            data = yield from server.fetch(key)
            return data
        # Rebuild from the stripe's survivors plus parity.
        fetches = []
        for other in range(self._nstripe_data):
            if other == position:
                continue
            node = self.servers[self.data_server(stripe, other)]
            if node.failed:
                raise RaidError("two Zebra storage servers are down")
            fetches.append(node.fetch((self.client_id, stripe, other)))
        parity_node = self.servers[self.parity_server(stripe)]
        if parity_node.failed:
            raise RaidError("two Zebra storage servers are down")
        fetches.append(parity_node.fetch(
            (self.client_id, stripe, self._nstripe_data)))
        blocks = yield self.sim.fork(fetches)
        self.fragments_rebuilt += 1
        return xor_blocks(blocks)

"""The XBUS parity computation engine.

One crossbar port is "a parity computation engine" (Section 2.2): it
streams blocks out of XBUS memory, XORs them, and streams the result
back.  Functionally we compute real XOR (numpy over the byte buffers)
so that parity on disk is genuine and reconstruction is verifiable;
the time charged is the port traffic — every input block read plus the
result written, at the port rate.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import HardwareError
from repro.hw.specs import XBUS_SPEC, XbusSpec
from repro.sim import BandwidthChannel, Simulator

#: Anything the parity engine can stream: the zero-copy data path hands
#: ``memoryview`` slices around, so blocks need not be ``bytes``.
BlockLike = Union[bytes, bytearray, memoryview]


def _as_u8(block: BlockLike) -> np.ndarray:
    """View ``block`` as a uint8 array without copying when possible."""
    if isinstance(block, memoryview) and not block.c_contiguous:
        # np.frombuffer needs contiguous memory.
        block = bytes(block)  # lint: disable=SIM004
    return np.frombuffer(block, dtype=np.uint8)


def xor_blocks(blocks: Sequence[BlockLike]) -> bytes:
    """Pure XOR of equal-length byte blocks (no simulated time).

    Accepts ``bytes``, ``bytearray`` or ``memoryview`` blocks.  The
    XOR of the first two blocks is the output buffer, and each further
    block is accumulated into it in place — measured faster than every
    vectorized alternative tried (copying the inputs into a fresh 2-D
    array costs more than the single ``reduce`` saves, and even a
    zero-copy strided 2-D view of adjacent blocks reduces slower than
    the in-place loop streams).
    """
    if not blocks:
        raise HardwareError("xor of zero blocks")
    length = len(blocks[0])
    for index, block in enumerate(blocks):
        if len(block) != length:
            raise HardwareError(
                f"xor block {index} differs in length: "
                f"{len(block)} != {length}")
    if len(blocks) == 1:
        return bytes(blocks[0])
    result = np.bitwise_xor(_as_u8(blocks[0]), _as_u8(blocks[1]))
    for block in blocks[2:]:
        result ^= _as_u8(block)
    return result.tobytes()


class ParityEngine:
    """Timed XOR engine on its own crossbar port."""

    def __init__(self, sim: Simulator, spec: XbusSpec = XBUS_SPEC,
                 name: str = "parity"):
        self.sim = sim
        self.name = name
        self.port = BandwidthChannel(
            sim, rate_mb_s=spec.port_rate_mb_s, name=f"{name}.port")
        self.blocks_xored = 0
        sim.metrics.expose(name, self, {"blocks_xored": ""})

    def compute(self, blocks: Sequence[bytes]):
        """Process: XOR ``blocks``; returns the parity block.

        Charges port time for reading every input block and writing the
        result back to memory.
        """
        traffic = sum(len(block) for block in blocks) + len(blocks[0])
        parity = xor_blocks(blocks)  # validates lengths up front
        yield from self.port.transfer(traffic)
        self.blocks_xored += len(blocks)
        return parity

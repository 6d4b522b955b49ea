#!/usr/bin/env python3
"""Video storage and playback server — the Gigabit Test Bed scenario.

Section 5.1: "RAID-II will act as a high-bandwidth video storage and
playback server.  Data collected from an electron microscope at LBL
will be sent from a video digitizer across an extended HIPPI network
for storage on RAID-II", and the InfoPad project will stream video
back out to a network of base stations.

This example ingests a simulated digitizer feed over the HIPPI path,
then serves several concurrent playback streams, checking that each
stream sustains its required frame rate.
"""

import random

from repro.net import UltranetLink
from repro.server import Raid2Config, Raid2Server
from repro.server.raid2 import make_sparcstation_client
from repro.sim import Simulator
from repro.units import KIB, MB

FRAME_BYTES = 300 * KIB      # one digitized microscope frame
FRAMES = 60
PLAYBACK_STREAMS = 3
#: Per-stream frame rate each InfoPad base station must sustain
#: (~0.6 MB/s per stream; the 3 MB/s clients have headroom).
STREAM_RATE_HZ = 2.0


def main() -> None:
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config.paper_default())
    sim.run_process(server.setup_lfs())
    fs = server.fs
    rng = random.Random(11)

    # ---- ingest: the digitizer pushes frames over the HIPPI path ----
    sim.run_process(fs.mkdir("/video"))
    sim.run_process(fs.create("/video/session1"))
    feed = rng.randbytes(FRAME_BYTES)

    start = sim.now

    def ingest():
        for frame in range(FRAMES):
            yield from server.board.receive_hippi(FRAME_BYTES)
            yield from fs.write("/video/session1", frame * FRAME_BYTES, feed)
        yield from fs.sync()

    sim.run_process(ingest())
    elapsed = sim.now - start
    total = FRAMES * FRAME_BYTES
    print(f"ingested {FRAMES} frames ({total / MB:.1f} MB) "
          f"at {total / MB / elapsed:.1f} MB/s "
          f"({FRAMES / elapsed:.0f} frames/s)")

    # ---- playback: concurrent client streams with a frame deadline ----
    clients = [make_sparcstation_client(sim, name=f"pad{index}")
               for index in range(PLAYBACK_STREAMS)]
    links = [UltranetLink(sim, name=f"link{index}")
             for index in range(PLAYBACK_STREAMS)]
    deadline = 1.0 / STREAM_RATE_HZ
    late_frames = [0]

    def playback(client, link, stream_index):
        for frame in range(0, FRAMES, PLAYBACK_STREAMS):
            frame_start = sim.now
            yield from server.client_read(
                client, link, "/video/session1",
                frame * FRAME_BYTES, FRAME_BYTES)
            if sim.now - frame_start > deadline:
                late_frames[0] += 1

    start = sim.now
    for client, link, index in zip(clients, links, range(PLAYBACK_STREAMS)):
        sim.process(playback(client, link, index))
    sim.run()
    elapsed = sim.now - start
    served = FRAMES  # across all streams
    print(f"served {PLAYBACK_STREAMS} playback streams "
          f"({served * FRAME_BYTES / MB:.1f} MB) in {elapsed:.2f} s "
          f"simulated -> {served * FRAME_BYTES / MB / elapsed:.1f} MB/s "
          f"aggregate")
    print(f"late frames (> {deadline * 1000:.0f} ms deadline): "
          f"{late_frames[0]} of {served}")

    print(f"host CPU utilization during playback: "
          f"{server.host.cpu_utilization(elapsed):.0%} "
          f"(bulk data bypasses the host)")


if __name__ == "__main__":
    main()

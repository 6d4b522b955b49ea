"""Property-based tests for Zebra: shadow-model equivalence and
single-server-loss recoverability under arbitrary operation mixes."""

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator
from repro.units import KIB
from repro.zebra import ZebraClient, ZebraStorageServer

FILES = ["/a", "/b"]

operations = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.sampled_from(FILES),
                  st.integers(0, 40), st.integers(1, 24),
                  st.integers(0, 255)),
        st.tuples(st.just("sync"),),
        st.tuples(st.just("delete"), st.sampled_from(FILES)),
    ),
    min_size=1, max_size=10,
)

BLOCK = 4 * KIB


def build(nservers=4):
    sim = Simulator()
    servers = [ZebraStorageServer(sim, name=f"zs{index}")
               for index in range(nservers)]
    client = ZebraClient(sim, servers, fragment_bytes=32 * KIB)
    return sim, servers, client


def apply_ops(sim, client, shadow, ops):
    for op in ops:
        if op[0] == "write":
            _k, path, start_block, nblocks, fill = op
            offset = start_block * BLOCK
            payload = bytes([fill]) * (nblocks * BLOCK)
            if path not in shadow:
                client.create(path)
                shadow[path] = bytearray()
            data = shadow[path]
            end = offset + len(payload)
            if len(data) < end:
                data.extend(bytes(end - len(data)))
            data[offset:end] = payload
            sim.run_process(client.write(path, offset, payload))
        elif op[0] == "sync":
            sim.run_process(client.sync())
        elif op[0] == "delete":
            _k, path = op
            if path in shadow:
                del shadow[path]
                client.delete(path)


def check(sim, client, shadow):
    for path in FILES:
        if path in shadow:
            expected = bytes(shadow[path])
            assert client.size_of(path) == len(expected)
            got = sim.run_process(client.read(path, 0, len(expected)))
            assert got == expected
        else:
            assert not client.exists(path)


@given(ops=operations)
@settings(max_examples=25, deadline=None)
def test_zebra_matches_shadow_model(ops):
    sim, _servers, client = build()
    shadow: dict[str, bytearray] = {}
    apply_ops(sim, client, shadow, ops)
    check(sim, client, shadow)


@given(ops=operations, victim=st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_zebra_single_server_loss_never_loses_data(ops, victim):
    sim, servers, client = build()
    shadow: dict[str, bytearray] = {}
    apply_ops(sim, client, shadow, ops)
    sim.run_process(client.sync())
    servers[victim].fail()
    check(sim, client, shadow)


@given(ops=operations)
@settings(max_examples=15, deadline=None)
def test_zebra_stripe_parity_invariant(ops):
    """Every flushed stripe's parity fragment equals the XOR of its
    data fragments, verified against the servers' raw stores."""
    from repro.hw.parity import xor_blocks

    sim, servers, client = build()
    shadow: dict[str, bytearray] = {}
    apply_ops(sim, client, shadow, ops)
    sim.run_process(client.sync())

    for stripe in range(client.stripes_flushed):
        fragments = []
        for position in range(len(servers) - 1):
            node = servers[client.data_server(stripe, position)]
            key = (client.client_id, stripe, position)
            fragments.append(sim.run_process(node.fetch(key)))
        parity_node = servers[client.parity_server(stripe)]
        parity = sim.run_process(parity_node.fetch(
            (client.client_id, stripe, len(servers) - 1)))
        assert xor_blocks(fragments) == parity

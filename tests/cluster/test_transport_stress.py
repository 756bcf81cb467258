"""Transport stress suite for the shared-memory process transport.

Three escalations, each pinned to the LocalTransport reference:

* **High fan-out** — 4 agents on FatTree4 under dynamic mesh traffic, so
  every directed agent pair exchanges batches every window; the merged
  trace must be byte-identical across {local, shm, process}.
* **Large batches** — administrative deliveries big enough to exercise
  *both* frame lanes: 10k records fit one ring slot, 12k overflow it
  into a one-off blob segment.  The snapshots taken after — classic
  pickle from the LocalTransport, protocol-5 out-of-band container from
  the process workers — must restore to engines with equal
  ``window_signature()``.
* **Back-to-back kill/restore** — two faults on the same agent in one
  run, each recovered from shared-memory snapshots, trace-identical to
  the same faults under the LocalTransport.

Plus a hypothesis property over the peer-ring protocol: however the
writer and reader of one channel interleave within the FINISH-barrier
bounds (including frames that overflow into blob segments), the reader
gets every window's records intact and in order, and the writer's
barrier-inferred acks never let it overwrite an unread slot.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    AgentSpec, ClusterEngine, DonsManager, FaultPlan, LocalTransport,
    ProcessTransport,
)
from repro.cluster.shm import (
    ShmRing, list_orphans, read_records, write_records,
)
from repro.core.checkpoint import is_oob_payload, restore_snapshot
from repro.core.instrument import InstrumentationBus
from repro.des.partition_types import contiguous_partition
from repro.metrics import TraceLevel
from repro.partition import ClusterSpec
from repro.protocols.packet import ROW_FIELDS
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import TINY, full_mesh_dynamic
from repro.units import GBPS, ms, us


@pytest.fixture(scope="module")
def scenario():
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.3), load=0.4,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=11, max_flows=30)
    return make_scenario(topo, flows, buffer_bytes=50_000)


def _run(scenario, transport, partition):
    n = partition.num_parts
    return DonsManager(scenario, ClusterSpec.homogeneous(n),
                       TraceLevel.FULL, transport=transport
                       ).run(partition=partition)


def test_high_fanout_shm_byte_identical(scenario):
    """4 agents, every pair exchanging records: the shm transport's
    merged trace and channel accounting are indistinguishable from the
    in-process reference (and from the pickled process transport)."""
    part = contiguous_partition(scenario.topology, 4)
    local = _run(scenario, "local", part)
    shm = _run(scenario, "shm", part)
    assert local.results.trace.entries == shm.results.trace.entries
    assert local.results.fcts_ps() == shm.results.fcts_ps()
    assert local.traffic == shm.traffic
    proc = _run(scenario, "process", part)
    assert proc.results.trace.entries == shm.results.trace.entries
    assert proc.traffic == shm.traffic


class TestLargeBatches:
    """>=10k-record deliveries through both frame lanes, snapshot parity."""

    #: 10k records = 880 KB: fits the default 1 MiB ring slot (zero-copy
    #: lane).  12k records = 1.056 MB: overflows it (blob-segment lane).
    FITS, OVERFLOWS = 10_000, 12_000

    def _records(self, scenario, partition, count, base_window):
        lookahead = scenario.lookahead_ps
        nodes = [n for n in range(scenario.topology.num_nodes)
                 if partition.part_of(n) == 1]
        width = len(ROW_FIELDS)
        return [
            ((base_window + 1) * lookahead + k, nodes[k % len(nodes)],
             tuple((k + f) % 251 for f in range(width)))
            for k in range(count)
        ]

    def _fill(self, scenario, partition, specs, transport):
        transport.bus = InstrumentationBus()
        transport.launch(specs)
        transport.build_all()
        transport.accept(
            1, self._records(scenario, partition, self.FITS, 2))
        transport.accept(
            1, self._records(scenario, partition, self.OVERFLOWS, 9))
        payloads = transport.snapshot_all(12)
        transport.close()
        return payloads, transport.bus.counters

    def test_both_lanes_snapshot_identical_state(self, scenario):
        part = contiguous_partition(scenario.topology, 2)
        specs = [AgentSpec(a, scenario, part, TraceLevel.FULL)
                 for a in range(2)]
        local_payloads, _ = self._fill(scenario, part, specs,
                                       LocalTransport())
        shm_payloads, counters = self._fill(scenario, part, specs,
                                            ProcessTransport())
        # Both lanes actually ran: one batch framed, one overflowed.
        assert counters.get("transport.shm_frames", 0) >= 1
        assert counters.get("transport.shm_fallbacks", 0) >= 1
        # The shm snapshot is the out-of-band container, the local one
        # the classic pickle — and they restore to the same state.
        assert is_oob_payload(shm_payloads[1])
        assert not is_oob_payload(local_payloads[1])
        for agent_id in range(2):
            sigs = []
            for payload in (local_payloads[agent_id],
                            shm_payloads[agent_id]):
                engine = specs[agent_id].make()
                engine.build()
                restore_snapshot(engine, payload, 12, scenario.name)
                sigs.append(engine.window_signature())
            assert sigs[0] == sigs[1], f"agent {agent_id} state diverged"


def _run_with_faults(scenario, transport, kill_windows):
    """Two faults on agent 1, recovered from periodic snapshots."""
    part = contiguous_partition(scenario.topology, 2)
    specs = [AgentSpec(a, scenario, part, TraceLevel.FULL) for a in range(2)]
    engine = ClusterEngine(
        specs, transport=transport, checkpoint_every=2,
        fault=FaultPlan(agent=1, at_window=kill_windows[0]))
    engine.build()
    pending = list(kill_windows[1:])
    while engine.advance():
        if pending and engine.fault.fired and engine._cursor >= pending[0]:
            engine.fault = FaultPlan(agent=1, at_window=pending.pop(0))
    results = engine.finalize()
    return results.trace.entries, len(engine.recoveries)


def test_back_to_back_kill_restore_under_shm(scenario):
    """Two kill/restore cycles on the same agent: the shm transport
    tears down the dead incarnation's segments, respawns with fresh
    ones, restores from the blob-segment snapshot — twice — and the
    merged trace still matches the LocalTransport running the same
    fault schedule."""
    kills = (3, 6)
    ref, ref_recoveries = _run_with_faults(scenario, "local", kills)
    got, shm_recoveries = _run_with_faults(scenario, "shm", kills)
    assert ref_recoveries == shm_recoveries == len(kills)
    assert ref == got


ROW_WIDTH = len(ROW_FIELDS)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_randomized_flush_ack_interleavings_keep_channel_order(data):
    """Property: no interleaving the FINISH barrier allows can reorder,
    drop or tear a channel's frames.  One writer publishes one frame per
    window (empty, slot-sized or blob-sized); the barrier lets it run at
    most one window ahead of the reader, and it infers acks exactly as
    the agents do (every frame but the newest is consumed).  A two-slot
    ring is the tightest geometry the protocol admits."""
    orphans_before = set(list_orphans())
    ring = ShmRing.create("hyp", slot_bytes=1024, n_slots=2)
    reader = None
    try:
        reader = ShmRing.attach(ring.name)
        sent = []        # records per window, in write order
        delivered = []   # records per window, in read order
        for _ in range(data.draw(st.integers(10, 80), label="steps")):
            # The reader may only read published frames; the writer may
            # only open window w + 1 once the reader finished w - 1.
            can_write = len(sent) - len(delivered) < 2
            can_read = len(delivered) < len(sent)
            if can_write and (not can_read or data.draw(
                    st.booleans(), label="write")):
                window = len(sent) + 1
                n = data.draw(st.sampled_from((0, 1, 3, 20)),
                              label="records")
                records = [
                    (window * 1000 + k, k,
                     tuple((window + k + f) % 97 for f in range(ROW_WIDTH)))
                    for k in range(n)
                ]
                ring.mark_consumed(ring.next_seq - 2)
                write_records(ring, records, "hyp-blob")
                sent.append(records)
            else:
                delivered.append(read_records(reader))
        while len(delivered) < len(sent):  # drain what is still in flight
            delivered.append(read_records(reader))
        assert delivered == sent
        assert set(list_orphans()) - orphans_before == {ring.name}
    finally:
        if reader is not None:
            reader.close()
        ring.unlink()
        ring.close()

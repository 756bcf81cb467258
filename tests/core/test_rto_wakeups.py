"""One pending RTO wakeup per flow.

``commit_send`` registers an ``ENTRY_TIMER`` wakeup only when the flow
has none pending in a later window, or when the deadline's window comes
before the pending one (sender column ``wake_ps``).  This suite pins:

* **Count** — a run registers a small constant number of timer wakeups
  per TCP flow, not one per visit (stale visits used to re-register the
  moving deadline, and each registration could become a window of its
  own);
* **Exactness** — on a lossy DCTCP dumbbell where retransmission
  timeouts really fire, traces and results are the OOD baseline's on
  both backends, K in {1, 8}, serial and on 2-agent clusters (local and
  process transports);
* **Durability** — a checkpoint taken while a flow's deadline sits past
  its pending wakeup restores byte-identically, and so does a
  LocalTransport agent kill recovered from snapshots.
"""

import hashlib

import pytest

from repro.cluster import DonsManager, FaultPlan
from repro.core.checkpoint import CheckpointingEngine, take_checkpoint
from repro.core.engine import DodEngine
from repro.core.window import ENTRY_TIMER
from repro.des import run_baseline
from repro.des.partition_types import contiguous_partition
from repro.metrics import TraceLevel
from repro.partition import ClusterSpec
from repro.protocols import DctcpState
from repro.scenario import make_scenario
from repro.topology import dumbbell
from repro.traffic import Flow, Transport
from repro.units import GBPS, us

#: Timer wakeups one TCP flow may register over a whole run.
WAKEUPS_PER_FLOW = 4


def _results_digest(res) -> str:
    """Hash of every public results field a user reads after a run."""
    h = hashlib.sha256()
    for part in (
        sorted((fid, fr.start_ps, fr.complete_ps, fr.size_bytes)
               for fid, fr in res.flows.items()),
        sorted(res.rtt_samples),
        (res.events.send, res.events.forward, res.events.transmit,
         res.events.ack),
        sorted((n, c) for n, c in res.node_events.items() if c),
        (res.drops, res.marks, res.tx_bytes, res.end_time_ps),
    ):
        h.update(repr(part).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def lossy_scenario():
    """Eight staggered DCTCP flows into a 6 KB bottleneck buffer: tail
    drops that only a retransmission timeout recovers."""
    topo = dumbbell(8, edge_rate_bps=10 * GBPS, bottleneck_rate_bps=1 * GBPS)
    flows = [Flow(i, i, 8 + i, 60_000, i * us(1), Transport.DCTCP)
             for i in range(8)]
    return make_scenario(topo, flows, buffer_bytes=6_000)


@pytest.fixture(scope="module")
def lossy_reference(lossy_scenario):
    return run_baseline(lossy_scenario, TraceLevel.FULL)


@pytest.fixture(scope="module")
def lossy_digest(lossy_scenario):
    """Results digest of the serial python DOD run (its ``end_time_ps``
    is a window end, so it is not the OOD baseline's)."""
    return _results_digest(DodEngine(lossy_scenario).run())


def _count_timer_wakeups(engine: DodEngine) -> list:
    calls = []
    register = engine.register_wakeup

    def counting(t, node, tag, flow_id):
        if tag == ENTRY_TIMER:
            calls.append(flow_id)
        register(t, node, tag, flow_id)

    engine.register_wakeup = counting
    return calls


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_timer_wakeups_are_a_small_constant_per_flow(fattree4_scenario,
                                                     backend):
    engine = DodEngine(fattree4_scenario, backend=backend)
    calls = _count_timer_wakeups(engine)
    res = engine.run()
    tcp = [f.flow_id for f in fattree4_scenario.flows
           if f.transport != Transport.UDP]
    assert res.completed() == len(fattree4_scenario.flows)
    assert set(calls) <= set(tcp)
    assert len(calls) <= WAKEUPS_PER_FLOW * len(tcp), (
        f"{len(calls)} ENTRY_TIMER wakeups for {len(tcp)} TCP flows")


def test_lossy_scenario_fires_timeouts(lossy_scenario, lossy_reference,
                                       monkeypatch):
    fired = []
    on_timeout = DctcpState.on_timeout

    def counting(self, now):
        fired.append(self.flow_id)
        return on_timeout(self, now)

    monkeypatch.setattr(DctcpState, "on_timeout", counting)
    res = DodEngine(lossy_scenario, TraceLevel.FULL).run()
    assert lossy_reference.drops > 0
    assert len(set(fired)) >= 4, "retransmission timeouts never fired"
    assert res.trace.digest() == lossy_reference.trace.digest()


@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("stack", ["serial", "local", "process"])
def test_lossy_run_matches_ood(lossy_scenario, lossy_reference,
                               lossy_digest, stack, backend, k):
    if stack == "serial":
        res = DodEngine(lossy_scenario, TraceLevel.FULL, backend=backend,
                        batch_windows=k).run()
    else:
        mgr = DonsManager(lossy_scenario, ClusterSpec.homogeneous(2),
                          TraceLevel.FULL, transport=stack, backend=backend,
                          batch_windows=k)
        res = mgr.run(partition=contiguous_partition(
            lossy_scenario.topology, 2)).results
    assert res.trace.digest() == lossy_reference.trace.digest()
    assert _results_digest(res) == lossy_digest
    assert 0 <= res.end_time_ps - lossy_reference.end_time_ps \
        <= lossy_scenario.lookahead_ps


def _deduplicated_flow(engine: DodEngine, window: int):
    """A flow whose deadline lies in a later window than its pending
    wakeup (a registration ``commit_send`` skipped), or None."""
    senders = engine.world.senders
    L = engine.lookahead
    for sidx in range(len(senders)):
        wake = senders.get(sidx, "wake_ps")
        deadline = senders.get(sidx, "rtx_deadline")
        if wake // L > window and deadline // L > wake // L \
                and not senders.get(sidx, "done"):
            return senders.get(sidx, "flow_id")
    return None


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_checkpoint_with_deduplicated_wakeup_pending(
        lossy_scenario, lossy_reference, lossy_digest, backend):
    engine = DodEngine(lossy_scenario, TraceLevel.FULL, backend=backend)
    engine.build()
    current, flow = -1, None
    while flow is None:
        nxt = engine._next_window(current)
        assert nxt is not None, "no window had a deduplicated wakeup"
        current = nxt
        engine.process_window(current)
        flow = _deduplicated_flow(engine, current)
    ckpt = take_checkpoint(engine, current)
    engine.pool.close()
    fresh = CheckpointingEngine(lossy_scenario, TraceLevel.FULL,
                                backend=backend)
    res = fresh.resume_from(ckpt)
    assert res.trace.digest() == lossy_reference.trace.digest()
    assert _results_digest(res) == lossy_digest


def test_local_fault_recovery_restores_wakeups(lossy_scenario,
                                               lossy_reference,
                                               lossy_digest):
    fault = FaultPlan(agent=1, at_window=300)
    mgr = DonsManager(lossy_scenario, ClusterSpec.homogeneous(2),
                      TraceLevel.FULL, transport="local",
                      checkpoint_every=200, fault=fault)
    run = mgr.run(partition=contiguous_partition(lossy_scenario.topology, 2))
    assert fault.fired and run.recoveries
    assert run.results.trace.digest() == lossy_reference.trace.digest()
    assert _results_digest(run.results) == lossy_digest

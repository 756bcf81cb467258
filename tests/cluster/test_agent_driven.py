"""The agent-driven process transport: shape, exactness, failure bounds.

The ProcessTransport agents run the §4.2 window loop themselves over
shared memory (see ``repro/cluster/transport.py``).  This suite pins
what that protocol promises:

* **Exactness** — on the conformance corpus, 2/3/4 agents, with and
  without K-window batching, the merged trace is the OOD reference's;
  and the traffic accounting the agents report equals the in-process
  transport's, field for field.
* **Shape** — the coordinator's pipe traffic is O(epochs), not
  O(windows): a run without checkpoints costs the same handful of
  commands however many windows it has.
* **Failure bounds** — an agent SIGKILLed in the middle of an epoch
  either recovers byte-identically from a checkpoint or ends the run
  with a ``ClusterError`` in bounded time; either way no agent process
  or shared-memory segment survives.
* **Measurement** — busy and barrier-wait seconds are measured by the
  agents themselves, and the published window cursor keeps
  ``progress()`` live inside an epoch.
"""

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

import repro.cluster.transport as transport_mod
from repro.cluster import (
    AgentSpec, ClusterEngine, DonsManager, ProcessTransport,
)
from repro.cluster.shm import list_orphans
from repro.conformance.runner import check_spec, load_spec_file
from repro.core.engine import run_dons
from repro.core.runner import EngineRunner
from repro.des.partition_types import contiguous_partition
from repro.errors import ClusterError
from repro.metrics import TraceLevel
from repro.partition import ClusterSpec
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import TINY, Flow, full_mesh_dynamic
from repro.units import GBPS, ms, us

CORPUS = sorted((Path(__file__).parents[1] / "conformance" / "corpus")
                .glob("*.json"))


@pytest.fixture(scope="module")
def mesh_scenario():
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    flows = full_mesh_dynamic(topo.hosts, ms(0.3), load=0.4,
                              host_rate_bps=10 * GBPS, sizes=TINY,
                              seed=33, max_flows=40)
    return make_scenario(topo, flows, buffer_bytes=50_000)


@pytest.fixture
def stall_hook():
    """Install-and-restore for the transport's per-window test hook
    (forked agents inherit whatever is installed when they spawn)."""
    def install(fn):
        transport_mod.stall_injector = fn
    yield install
    transport_mod.stall_injector = None


def _agents_alive():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("dons-agent-") and p.is_alive()]


# --- exactness ---------------------------------------------------------------

@pytest.mark.parametrize("batch_windows", [1, 8])
@pytest.mark.parametrize("agents", [2, 3, 4])
def test_corpus_matches_ood_on_every_transport(agents, batch_windows,
                                               monkeypatch):
    """Every corpus entry, both transports, byte-identical to OOD."""
    monkeypatch.setenv("REPRO_BATCH_WINDOWS", str(batch_windows))
    oracles = ("ood", f"cluster-local-{agents}",
               f"cluster-process-{agents}")
    for path in CORPUS:
        report = check_spec(load_spec_file(path), oracles)
        assert report.ok, f"{path.stem}: {report.summary()}"


@pytest.mark.parametrize("batch_windows", [1, 8])
@pytest.mark.parametrize("agents", [2, 3, 4])
def test_traffic_stats_equal_local(mesh_scenario, agents, batch_windows):
    part = contiguous_partition(mesh_scenario.topology, agents)
    runs = {
        kind: DonsManager(mesh_scenario, ClusterSpec.homogeneous(agents),
                          TraceLevel.FULL, transport=kind,
                          batch_windows=batch_windows).run(partition=part)
        for kind in ("local", "process")
    }
    local, proc = runs["local"], runs["process"]
    assert proc.traffic == local.traffic
    assert proc.results.trace.digest() == local.results.trace.digest()
    assert (proc.bus.counters["cluster.windows"]
            == local.bus.counters["cluster.windows"]
            == proc.traffic.windows)


# --- shape -------------------------------------------------------------------

def _count_pipe_sends(scenario, monkeypatch):
    sends = []
    original = ProcessTransport._send

    def counting(self, agent_id, message, window=-1):
        sends.append(message[0])
        return original(self, agent_id, message, window)

    monkeypatch.setattr(ProcessTransport, "_send", counting)
    part = contiguous_partition(scenario.topology, 2)
    run = DonsManager(scenario, ClusterSpec.homogeneous(2),
                      transport="process").run(partition=part)
    monkeypatch.setattr(ProcessTransport, "_send", original)
    return sends, run.traffic.windows


def test_coordinator_pipe_traffic_is_per_epoch(monkeypatch):
    """No per-window command: doubling the windows leaves the
    coordinator's pipe sends unchanged (build, one epoch, finish, exit
    per agent)."""
    topo = fattree(4, rate_bps=10 * GBPS, delay_ps=us(1))
    hosts = topo.hosts
    flows = [Flow(i, hosts[i], hosts[15 - i], 10_000_000, 0)
             for i in range(8)]

    def scenario(duration_us):
        return make_scenario(topo, flows, duration_ps=us(duration_us))

    short_sends, short_windows = _count_pipe_sends(scenario(100),
                                                   monkeypatch)
    long_sends, long_windows = _count_pipe_sends(scenario(250), monkeypatch)
    assert long_windows >= 2 * short_windows > 0
    assert short_sends == long_sends
    assert sorted(set(short_sends)) == ["build", "epoch", "exit", "finish"]
    assert len(short_sends) == 4 * 2


# --- failure bounds ---------------------------------------------------------

def _specs(scenario, agents=2):
    part = contiguous_partition(scenario.topology, agents)
    return [AgentSpec(a, scenario, part, TraceLevel.FULL)
            for a in range(agents)]


def _sigkill_agent1_at(window, marker):
    """Per-window hook that SIGKILLs agent 1's process once, mid-epoch."""
    def inject(agent_id, at):
        if agent_id == 1 and at >= window and not marker.exists():
            marker.touch()
            os.kill(os.getpid(), signal.SIGKILL)
    return inject


def test_sigkill_mid_epoch_recovers_byte_identical(mesh_scenario, tmp_path,
                                                   stall_hook):
    reference = run_dons(mesh_scenario, TraceLevel.FULL)
    marker = tmp_path / "killed"
    stall_hook(_sigkill_agent1_at(60, marker))
    engine = ClusterEngine(_specs(mesh_scenario), transport="process",
                           checkpoint_every=25)
    results = EngineRunner(engine).run()
    assert marker.exists(), "the kill never fired"
    assert len(engine.recoveries) == 1
    rec = engine.recoveries[0]
    assert rec.agent == 1
    assert rec.restored_from_window < rec.failed_window
    assert (sorted(results.trace.entries)
            == sorted(reference.trace.entries))
    assert _agents_alive() == []
    assert list_orphans() == []


def test_sigkill_mid_epoch_without_checkpoint_fails_bounded(
        mesh_scenario, tmp_path, stall_hook):
    marker = tmp_path / "killed"
    stall_hook(_sigkill_agent1_at(60, marker))
    engine = ClusterEngine(_specs(mesh_scenario), transport="process")
    t0 = time.monotonic()
    with pytest.raises(ClusterError, match="no checkpoint"):
        EngineRunner(engine).run()
    assert time.monotonic() - t0 < 30.0
    assert marker.exists()
    assert _agents_alive() == []
    assert list_orphans() == []


# --- measurement ------------------------------------------------------------

def test_agents_measure_their_own_busy_time(mesh_scenario, stall_hook):
    """A sleep injected into agent 1 shows up as agent 1's busy time and
    agent 0's barrier wait — not as whichever reply the coordinator
    happened to read second."""
    def inject(agent_id, _window):
        if agent_id == 1:
            time.sleep(0.0005)

    stall_hook(inject)
    engine = ClusterEngine(_specs(mesh_scenario), transport="process",
                           watchdog=True)
    EngineRunner(engine).run()
    gauges = engine.bus.metrics.gauges
    windows = engine.stats.windows
    assert gauges["a1:busy_s"] > gauges["a0:busy_s"]
    assert gauges["a1:busy_s"] > 0.0005 * windows
    assert gauges["a0:barrier_wait_s"] > gauges["a1:barrier_wait_s"]
    assert engine.watchdog.measured_times() == pytest.approx(
        [gauges["a0:busy_s"], gauges["a1:busy_s"]])


def test_progress_reads_published_cursor_inside_an_epoch(mesh_scenario,
                                                         stall_hook):
    """``progress()`` sampled while ``advance()`` blocks on the epoch
    sees the agents' cursor move."""
    import threading

    def inject(_agent_id, _window):
        time.sleep(0.002)

    stall_hook(inject)
    engine = ClusterEngine(_specs(mesh_scenario), transport="process")
    engine.build()
    seen = []
    stop = threading.Event()

    def sample():
        while not stop.is_set():
            seen.append(engine.progress()["windows"])
            time.sleep(0.01)

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        while engine.advance():
            pass
    finally:
        stop.set()
        sampler.join()
        engine.finalize()
    total = engine.stats.windows
    assert any(0 < w < total for w in seen), seen[:20]
    assert seen == sorted(seen)


# --- the loop itself, in-process ---------------------------------------------

def _in_process_agents(scenario, agents):
    """Agent loops sharing one control block and ring mesh, hosted on
    threads of this process instead of worker processes."""
    from repro.cluster.shm import ControlBlock, ShmRing
    from repro.cluster.transport import _AgentLoop
    ctl = ControlBlock.create("test-ctl", agents)
    mesh = [None if src == dst else ShmRing.create(f"test-{src}to{dst}")
            for src in range(agents) for dst in range(agents)]
    names = [ring.name if ring is not None else None for ring in mesh]
    loops = []
    for spec in _specs(scenario, agents):
        engine = spec.make()
        engine.build()
        loop = _AgentLoop(engine, ControlBlock.attach(ctl.name))
        loop.attach_mesh(names)
        loops.append(loop)

    def cleanup():
        for loop in loops:
            loop.close_mesh()
            loop.ctl.close()
        for seg in [ring for ring in mesh if ring is not None] + [ctl]:
            seg.unlink()
            seg.close()

    return ctl, loops, cleanup


def test_agent_loops_on_threads_match_local(mesh_scenario):
    """The worker-side loop, driven on threads: same merged trace as the
    coordinator-driven LocalTransport, every agent agreeing on the
    window count."""
    import threading
    from repro.cluster.runtime import merge_results
    ctl, loops, cleanup = _in_process_agents(mesh_scenario, 3)
    replies = [None] * len(loops)
    try:
        def run(i):
            replies[i] = loops[i].run_epoch(-1, None, None, 1, True)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(loops))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for loop in loops:
            loop.engine.finish()
        merged = merge_results([loop.engine.results for loop in loops],
                               mesh_scenario.name)
    finally:
        cleanup()
    local = DonsManager(mesh_scenario, ClusterSpec.homogeneous(3),
                        TraceLevel.FULL).run(
        partition=contiguous_partition(mesh_scenario.topology, 3))
    assert merged.trace.digest() == local.results.trace.digest()
    assert {reply.rounds for reply in replies} == {local.traffic.windows}
    assert all(reply.next_window is None for reply in replies)
    assert all(len(reply.times) == reply.rounds for reply in replies)


def test_abort_word_releases_a_waiting_agent(mesh_scenario):
    """An agent waiting at a barrier for a peer that never arrives
    returns as soon as the abort word is raised."""
    import threading
    ctl, loops, cleanup = _in_process_agents(mesh_scenario, 2)
    replies = []
    try:
        thread = threading.Thread(
            target=lambda: replies.append(
                loops[0].run_epoch(-1, None, None, 1, False)))
        thread.start()
        time.sleep(0.05)
        assert thread.is_alive(), "agent 0 should be waiting for agent 1"
        ctl.abort()
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        cleanup()
    assert replies and replies[0].rounds == 0

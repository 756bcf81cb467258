"""Transport layer: where agents live and how window batches move.

The cluster runtime (:mod:`repro.cluster.runtime`) never talks to an
:class:`~repro.cluster.agent.AgentEngine` directly; it talks to a
*transport*, which decides where each agent executes and carries the
batched RPCs between them.  Two implementations:

* :class:`LocalTransport` — every agent is an in-process engine and a
  batch RPC is an in-process mailbox hand-off (the DESIGN.md
  substitution).  The coordinator drives it window by window; serial,
  deterministic, zero serialization cost.  It is the default, the
  reference the equivalence tests compare against, and the only
  transport that supports live migration.
* :class:`ProcessTransport` — every agent runs in its own
  ``multiprocessing`` worker and the agents drive the §4.2 window loop
  themselves over shared memory, so the coordinator is off the
  per-window path.

The ProcessTransport protocol.  The coordinator creates every segment
(:mod:`repro.cluster.shm`): one :class:`~repro.cluster.shm.ControlBlock`
of int64 words, one single-writer record ring per ordered agent pair,
and one inbox ring per agent.  It then sends each agent one ``epoch``
command; within the epoch every agent loops:

1. **Agree.**  Contribute its next window (``peek_next_window``) to the
   control block's min-reduction barrier; the minimum is the window the
   whole cluster runs (conservative synchronization, §4.2).  With
   ``batch_windows > 1`` a second reduction over the agents' quiet
   horizons may stretch the round into a barrier-free span.
2. **Run** the window and frame each peer's outbox straight into the
   ring it writes for that peer — one frame per window per channel,
   empty or not, so frame sequence numbers count windows.
3. **FINISH barrier.**  Publish the value for the next agreement — its
   own next window lowered by the arrival windows ``t // L`` of the
   records it just sent (exact under the lookahead discipline) — then
   bump its sequence word and wait until every peer's word caught up:
   a bounded yield-spin, then short sleeps.  The barrier *is* the next
   round's agreement, so a window costs one barrier.
4. **Accept** the peers' frames in source order, so each destination
   installs its records in ``(src, chan_seq)`` order exactly as the
   coordinator-driven loop delivers them.

Passing barrier ``g`` proves every peer consumed the frames of round
``g - 2``, so a writer never needs more than two slots and never an ack
message.  An epoch ends only at a control point the coordinator owns:
a ``checkpoint_every`` boundary, a ``FaultPlan`` window, the duration
cut or the end of the run.  Each agent then replies with its window
cursor, the agreed next window, its per-channel RPC counts (merged into
the same :class:`~repro.cluster.channel.ClusterTrafficStats` the
LocalTransport keeps) and its own measured busy and barrier-wait
seconds.

The control block's **abort word** bounds failure: when an agent's
pipe reaches EOF mid-epoch (the process died) or it reports an error,
the coordinator raises the word, every spin loop sees it, and the
survivors return to their command loop.  The coordinator also owns
build, checkpoint (snapshot payloads travel as one-off blob segments),
kill/restore and finalize; a respawned agent gets a fresh inbox and the
whole ring mesh is re-minted, so no frame of a dead incarnation is ever
read.  CPU pinning (``pin_cpus=True`` / ``REPRO_PIN_CPUS=1``) places
agent *a* on core ``a % cpu_count`` (PARSIR-style).

The transport is the fault boundary: :meth:`Transport.kill` is the
fault-injection hook (worker process terminated / in-process engine
discarded), failures surface as :class:`AgentFailure`, and
:meth:`Transport.restore` rebuilds a dead agent from a checkpoint
payload — the runtime layers replay and catch-up on top.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_connections
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .agent import AgentEngine, AgentSpec, spec_of
from .channel import (
    ChannelMap, ClusterTrafficStats, RPC_FRAME_BYTES, RPC_RECORD_BYTES,
)
from .shm import (
    NO_WINDOW, RECORD_BYTES, ControlBlock, EpochAborted, ShmRing,
    read_blob, read_records, reap_orphans, write_blob, write_records,
)
from ..core.checkpoint import (
    restore_snapshot, state_oob_parts, take_checkpoint,
)
from ..core.instrument import SystemProfile, WindowProfile
from ..core.telemetry import WAIT_MS_BUCKETS
from ..errors import ClusterError
from ..metrics import SimResults
from ..protocols.packet import Row

#: One remote delivery: (arrival_time_ps, node, row).
Record = Tuple[int, int, Row]

#: Test hook for the watchdog and crash drills: when set, called as
#: ``stall_injector(agent_id, window)`` just before an agent executes a
#: window — in-process under the LocalTransport, inside the (forked)
#: worker under the ProcessTransport.  Always ``None`` in production.
stall_injector = None


class AgentFailure(ClusterError):
    """An agent died (or was killed) and cannot serve requests."""

    def __init__(self, agent_id: int, window: int = -1) -> None:
        super().__init__(f"agent {agent_id} failed at window {window}")
        self.agent_id = agent_id
        self.window = window


@dataclass
class AgentReport:
    """What one finished agent hands back across the transport."""

    agent_id: int
    results: SimResults
    counters: Dict[str, int]
    totals: Dict[str, SystemProfile]
    windows: List[WindowProfile]
    #: Telemetry streams (PR 5): the agent bus's span buffer, its metric
    #: registry snapshot, and the wall-clock position of its span epoch
    #: — the cluster bus uses the latter to normalize child clocks
    #: before merging the spans under the ``a<id>:`` namespace.
    spans: List[tuple] = None  # type: ignore[assignment]
    metrics: Dict[str, Any] = None  # type: ignore[assignment]
    epoch_wall: float = 0.0
    #: Seconds this agent spent running windows / waiting at barriers,
    #: measured by the agent itself (process transport; 0 in-process).
    busy_s: float = 0.0
    barrier_wait_s: float = 0.0


@dataclass
class EpochReply:
    """One agent's account of an epoch (:meth:`ProcessTransport.run_windows_all`)."""

    #: Last window the cluster completed, and the agreed next one
    #: (``None``: nothing left anywhere).
    cursor: int
    next_window: Optional[int]
    #: FINISH barriers passed — one per window or batched span.
    rounds: int
    spans: int = 0
    batched_windows: int = 0
    #: Per destination agent: (messages, records, bytes) this agent sent.
    channels: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)
    busy_s: float = 0.0
    wait_s: float = 0.0
    #: ``(window, busy seconds)`` per round, when the coordinator asked
    #: for per-window timing (watchdog armed / telemetry on).
    times: Optional[List[Tuple[int, float]]] = None


class Transport:
    """Base transport: channel accounting shared by every implementation.

    Every transport hosts agents (``launch`` / ``build_all`` /
    ``accept`` / ``snapshot_all`` / ``kill`` / ``alive`` / ``restore``
    / ``finish_all`` / ``close``) and ends a run with the same
    :class:`ClusterTrafficStats`.  How windows execute differs:
    ``agent_driven`` transports run whole epochs per
    ``run_windows_all`` call, the others are driven window by window by
    the coordinator (``peek_all`` / ``run_window_all`` / ``send_batch``
    / ``deliver_pending`` / ``barrier``, plus ``quiet_all`` and a
    ``run_windows_all`` restricted to spans proven quiet).
    """

    #: Whether the agents run the §4.2 loop themselves (epoch calls).
    agent_driven = False

    def __init__(self) -> None:
        self.specs: List[AgentSpec] = []
        self.channels = ChannelMap()
        self.stats = ClusterTrafficStats()
        #: Cluster bus for transport-level telemetry; the runtime wires
        #: it at build when telemetry is on, else spans stay un-emitted.
        self.bus = None
        #: Per-agent busy seconds of the most recent window (or epoch)
        #: call — the runtime turns these into barrier-wait slices.
        self.window_times: List[float] = []
        #: Measure ``window_times`` even with telemetry off — set by the
        #: runtime when a cluster watchdog is armed, which needs
        #: per-agent busy times without paying for span capture.
        self.track_times = False

    def _telemetry(self) -> bool:
        return self.bus is not None and self.bus.telemetry

    def _timed(self) -> bool:
        """Whether window calls should measure per-agent times."""
        return self.track_times or self._telemetry()

    def _count(self, name: str, n: int = 1) -> None:
        if self.bus is not None:
            self.bus.count(name, n)

    @property
    def num_agents(self) -> int:
        return len(self.specs)

    def finalize_stats(self) -> ClusterTrafficStats:
        """Aggregate the per-channel accounting into the run totals."""
        channels = list(self.channels.values())
        self.stats.rpc_messages = sum(c.messages for c in channels)
        self.stats.rpc_records = sum(c.records for c in channels)
        self.stats.rpc_bytes = sum(c.bytes_sent for c in channels)
        self.stats.egress_bytes = [
            sum(c.bytes_sent for c in channels if c.src == a)
            for a in range(self.num_agents)
        ]
        return self.stats

    # --- hosting API (subclass responsibility) ----------------------------

    def launch(self, specs: Sequence[AgentSpec]) -> None:
        raise NotImplementedError

    def build_all(self) -> None:
        raise NotImplementedError

    def accept(self, agent_id: int, records: List[Record]) -> None:
        """Administrative delivery straight into one agent's calendar."""
        raise NotImplementedError

    def snapshot_all(self, window: int) -> List[bytes]:
        raise NotImplementedError

    def kill(self, agent_id: int) -> None:
        raise NotImplementedError

    def alive(self, agent_id: int) -> bool:
        raise NotImplementedError

    def restore(self, agent_id: int, payload: bytes, window: int) -> None:
        raise NotImplementedError

    def finish_all(self) -> List[AgentReport]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


def _report_of(engine: AgentEngine, busy_s: float = 0.0,
               wait_s: float = 0.0) -> AgentReport:
    bus = engine.bus
    return AgentReport(
        agent_id=engine.agent_id,
        results=engine.results,
        counters=dict(bus.counters),
        totals=dict(bus.totals),
        windows=list(bus.windows),
        spans=list(bus.spans),
        metrics=bus.metrics.snapshot() if bus.metrics else {},
        epoch_wall=bus.epoch_wall,
        busy_s=busy_s,
        barrier_wait_s=wait_s,
    )


class LocalTransport(Transport):
    """All agents in this process; a batch RPC is a mailbox hand-off.

    ``engines`` may be supplied pre-constructed (the legacy
    ``ClusterController`` path and checkpoint resume); otherwise
    :meth:`launch` builds them from the specs.  A killed agent's engine
    is dropped on the floor — the crash loses its memory, exactly what
    recovery must survive.
    """

    def __init__(self, engines: Optional[Sequence[AgentEngine]] = None) -> None:
        super().__init__()
        self.engines: List[Optional[AgentEngine]] = list(engines or [])
        if self.engines:
            self.specs = [spec_of(e) for e in self.engines]
        self._dead: set = set()

    def launch(self, specs: Sequence[AgentSpec]) -> None:
        if self.engines:
            if len(self.engines) != len(specs):
                raise ClusterError("adopted engines do not match the specs")
            self.specs = [spec_of(e) for e in self.engines]
            return
        self.specs = list(specs)
        self.engines = [spec.make() for spec in self.specs]

    def _engine(self, agent_id: int, window: int = -1) -> AgentEngine:
        engine = self.engines[agent_id]
        if agent_id in self._dead or engine is None:
            raise AgentFailure(agent_id, window)
        return engine

    def build_all(self) -> None:
        for agent_id in range(len(self.engines)):
            engine = self._engine(agent_id)
            if not engine.built:
                engine.build()

    def peek_all(self, current: int) -> List[Optional[int]]:
        return [self._engine(a).peek_next_window(current)
                for a in range(len(self.engines))]

    def run_window(self, agent_id: int, window: int) -> Dict[int, List[Record]]:
        if stall_injector is not None:
            stall_injector(agent_id, window)
        return self._engine(agent_id, window).run_window(window)

    def run_window_all(
        self, window: int,
    ) -> List[Union[Dict[int, List[Record]], AgentFailure]]:
        """Run the window on every agent (an agent with nothing
        scheduled in it returns an empty outbox without running)."""
        out: List[Union[Dict[int, List[Record]], AgentFailure]] = []
        timed = self._timed()
        if timed:
            self.window_times = []
        for agent_id in range(len(self.engines)):
            t0 = time.perf_counter() if timed else 0.0
            try:
                out.append(self.run_window(agent_id, window))
            except AgentFailure as failure:
                out.append(failure)
            if timed:
                # Serial execution: each agent's busy time is exactly its
                # own wall time; the runtime derives barrier waits.
                self.window_times.append(time.perf_counter() - t0)
        return out

    def quiet_all(self, current: int, limit: int) -> List[int]:
        """Every agent's :meth:`AgentEngine.remote_quiet_horizon` — the
        batcher takes the minimum before committing to a barrier-free
        span."""
        return [self._engine(a).remote_quiet_horizon(current, limit)
                for a in range(len(self.engines))]

    def run_windows_all(
        self, current: int, end_window: int
    ) -> List[Tuple[int, Dict[int, List[Record]]]]:
        """Batched span: every agent runs its scheduled windows in
        ``(current, end_window)`` without intermediate barriers (the
        caller proved the span quiet)."""
        out: List[Tuple[int, Dict[int, List[Record]]]] = []
        timed = self._timed()
        if timed:
            self.window_times = []
        for agent_id in range(len(self.engines)):
            t0 = time.perf_counter() if timed else 0.0
            out.append(self._engine(agent_id, current)
                       .run_windows(current, end_window))
            if timed:
                self.window_times.append(time.perf_counter() - t0)
        return out

    # --- coordinator-side batch flow ----------------------------------------

    def send_batch(self, src: int, dst: int, records: List[Record]) -> None:
        """Account and enqueue one window batch (nothing for empty)."""
        if records:
            if self._telemetry():
                with self.bus.span("send", "transport", src=src, dst=dst,
                                   records=len(records)):
                    self.channels[src, dst].send_batch(records)
            else:
                self.channels[src, dst].send_batch(records)

    def deliver_pending(self) -> Dict[int, List[Record]]:
        """Drain every channel into its destination agent; returns what
        each destination received (the runtime's replay log feeds on
        this).

        Channels drain in ``(src, dst)`` order and each destination gets
        *one* hand-off per window — its per-channel batches concatenated
        in source order, the deterministic record order the equivalence
        tests pin down.
        """
        delivered: Dict[int, List[Record]] = {}
        for (_src, dst), channel in self.channels.sorted_items():
            records = channel.drain()
            if records:
                delivered.setdefault(dst, []).extend(records)
        for dst in sorted(delivered):
            records = delivered[dst]
            if self._telemetry():
                with self.bus.span("serialize", "transport", dst=dst,
                                   records=len(records)):
                    self.accept(dst, records)
            else:
                self.accept(dst, records)
        return delivered

    def barrier(self) -> None:
        """End-of-window FINISH barrier: everyone tells everyone (§4.2)."""
        n = self.num_agents
        self.stats.finish_signals += n * (n - 1)
        self.stats.windows += 1

    # --- hosting ------------------------------------------------------------

    def accept(self, agent_id: int, records: List[Record]) -> None:
        self._engine(agent_id).accept_remote(records)

    def snapshot_all(self, window: int) -> List[bytes]:
        return [take_checkpoint(self._engine(a), window).payload
                for a in range(len(self.engines))]

    def kill(self, agent_id: int) -> None:
        """Fault injection: the agent crashes, its in-memory state is gone."""
        self._dead.add(agent_id)
        self.engines[agent_id] = None

    def alive(self, agent_id: int) -> bool:
        return agent_id not in self._dead and self.engines[agent_id] is not None

    def restore(self, agent_id: int, payload: bytes, window: int) -> None:
        spec = self.specs[agent_id]
        engine = spec.make()
        engine.build()
        restore_snapshot(engine, payload, window, spec.scenario.name)
        self.engines[agent_id] = engine
        self._dead.discard(agent_id)

    def finish_all(self) -> List[AgentReport]:
        reports = []
        for agent_id in range(len(self.engines)):
            engine = self._engine(agent_id)
            engine.finish()
            reports.append(_report_of(engine))
        return reports

    def close(self) -> None:  # engines stay inspectable after the run
        pass


# --- process transport: the worker side ---------------------------------------

class _AgentLoop:
    """One worker's half of the agent-driven protocol (see module doc)."""

    def __init__(self, engine: AgentEngine, ctl: ControlBlock) -> None:
        self.engine = engine
        self.ctl = ctl
        self.me = engine.agent_id
        self.peers = [a for a in range(ctl.n_agents) if a != self.me]
        self.out_rings: Dict[int, ShmRing] = {}
        self.in_rings: Dict[int, ShmRing] = {}
        #: Run totals for the AgentReport.
        self.busy_s = 0.0
        self.wait_s = 0.0

    def attach_mesh(self, mesh: Sequence[Optional[str]]) -> None:
        """Adopt a freshly minted ring mesh (``mesh[src * n + dst]``)."""
        self.close_mesh()
        n, me = self.ctl.n_agents, self.me
        for peer in self.peers:
            self.out_rings[peer] = ShmRing.attach(mesh[me * n + peer])
            self.in_rings[peer] = ShmRing.attach(mesh[peer * n + me])

    def close_mesh(self) -> None:
        for ring in (*self.out_rings.values(), *self.in_rings.values()):
            ring.close()
        self.out_rings = {}
        self.in_rings = {}

    def run_epoch(self, cursor: int, end_window: Optional[int],
                  max_windows: Optional[int], batch: int,
                  timed: bool) -> EpochReply:
        engine = self.engine
        ctl = self.ctl
        ctl.bind(self.me)
        bus = engine.bus
        telemetry = bus.telemetry
        perf = time.perf_counter
        L = engine.lookahead
        duration = engine.scenario.duration_ps
        # Every bound below is identical on every agent, and so is every
        # barrier result: all agents take the same branches in lockstep.
        dur_last = duration // L if duration is not None else NO_WINDOW - 1
        last = dur_last if end_window is None else min(dur_last,
                                                       end_window - 1)
        budget = NO_WINDOW if max_windows is None else max_windows
        peers = self.peers
        out_rings = self.out_rings
        in_rings = self.in_rings
        blob_tag = f"{self.me}-frame"
        channels: Dict[int, List[int]] = {}
        times: Optional[List[Tuple[int, float]]] = [] if timed else None
        rounds = spans = batched = 0
        frames = frame_records = fallbacks = records_in = 0
        busy = wait = 0.0
        window = NO_WINDOW
        t_epoch = perf()
        try:
            nxt = engine.peek_next_window(cursor)
            window, waited = ctl.allmin(NO_WINDOW if nxt is None else nxt)
            wait += waited
            while window <= last and rounds < budget:
                t0 = perf()
                round_wait = 0.0
                if stall_injector is not None:
                    stall_injector(self.me, window)
                horizon = 0
                if batch > 1:
                    limit = min(window + batch, dur_last + 1)
                    if limit > window + 1:
                        horizon, waited = ctl.allmin(
                            engine.remote_quiet_horizon(cursor, limit))
                        round_wait += waited
                ran = window
                span = horizon > window + 1
                if span:
                    # Barrier-free span: the quiet horizons prove no
                    # cross-agent record can appear before ``horizon``.
                    _last, out = engine.run_windows(cursor, horizon)
                    if out:
                        raise ClusterError(
                            f"agent {self.me} emitted cross-agent records "
                            f"inside a quiet span [{window}, {horizon})")
                    spans += 1
                    batched += horizon - window
                    cursor = horizon - 1
                    nxt = engine.peek_next_window(cursor)
                    vote = NO_WINDOW if nxt is None else nxt
                else:
                    out = engine.run_window(window)
                    nxt = engine.peek_next_window(window)
                    vote = NO_WINDOW if nxt is None else nxt
                    for dst in peers:
                        ring = out_rings[dst]
                        # Barrier g proves round g - 2 was consumed: at
                        # most the previous frame is still unread.
                        ring.mark_consumed(ring.next_seq - 2)
                        records = out.get(dst)
                        if records:
                            n = len(records)
                            acct = channels.get(dst)
                            if acct is None:
                                acct = channels[dst] = [0, 0, 0]
                            acct[0] += 1
                            acct[1] += n
                            acct[2] += RPC_FRAME_BYTES + RPC_RECORD_BYTES * n
                            frames += 1
                            frame_records += n
                            arrival = min(r[0] for r in records) // L
                            if arrival < vote:
                                vote = arrival
                            fallbacks += write_records(ring, records, blob_tag)
                        else:
                            write_records(ring, (), blob_tag)
                    cursor = window
                t_wait = bus.now() if telemetry else 0.0
                window, waited = ctl.allmin(vote)  # FINISH barrier
                round_wait += waited
                if telemetry:
                    bus.metrics.record("cluster.barrier_wait_ms",
                                       waited * 1e3, WAIT_MS_BUCKETS)
                    if waited > 0.0:
                        bus.span_add("barrier-wait", t_wait, t_wait + waited,
                                     "cluster", {"window": ran})
                if not span:
                    for src in peers:
                        records = read_records(in_rings[src])
                        if records:
                            records_in += len(records)
                            engine.accept_remote(records)
                rounds += 1
                ctl.publish(cursor, rounds)
                round_busy = perf() - t0 - round_wait
                busy += round_busy
                wait += round_wait
                if times is not None:
                    times.append((ran, round_busy))
        except EpochAborted:
            # A peer died: stand down.  The coordinator discards this
            # reply and rolls the cluster back (or fails the run).
            busy = max(0.0, perf() - t_epoch - wait)
        self.busy_s += busy
        self.wait_s += wait
        if frames:
            bus.count("transport.shm_frames", frames)
            bus.count("transport.shm_bytes", frame_records * RECORD_BYTES)
        if fallbacks:
            bus.count("transport.shm_fallbacks", fallbacks)
        if records_in:
            bus.count("transport.records_in", records_in)
        return EpochReply(
            cursor=cursor,
            next_window=None if window >= NO_WINDOW else window,
            rounds=rounds, spans=spans, batched_windows=batched,
            channels={dst: tuple(acct) for dst, acct in channels.items()},
            busy_s=busy, wait_s=wait, times=times,
        )


def _pack_windows(windows: Sequence[WindowProfile]) -> List[tuple]:
    """Per-window profiles as plain tuples for the finish reply: they
    are most of its bytes, and tuples of numbers pickle and unpickle
    several times faster than dataclass instances."""
    return [(w.index, w.start_ps,
             [(name, p.items, p.tasks, p.elapsed_s)
              for name, p in w.systems.items()])
            for w in windows]


def _unpack_windows(rows: Sequence[tuple]) -> List[WindowProfile]:
    return [WindowProfile(index, start_ps,
                          {name: SystemProfile(items, tasks, elapsed)
                           for name, items, tasks, elapsed in systems})
            for index, start_ps, systems in rows]


def _agent_worker(conn, spec: AgentSpec, inbox_name: str,
                  ctl_name: str) -> None:
    """Command loop of one worker process hosting one agent engine."""
    import traceback
    if spec.pin_cpu is not None and hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {spec.pin_cpu})
        except OSError:  # pragma: no cover - cpu offline / not permitted
            pass
    inbox = ShmRing.attach(inbox_name)
    ctl = ControlBlock.attach(ctl_name)
    engine = spec.make()
    loop = _AgentLoop(engine, ctl)
    try:
        while True:
            message = conn.recv()
            command = message[0]
            if command == "exit":
                conn.send(("ok", None))
                break
            try:
                reply: Any = None
                if command == "build":
                    if not engine.built:
                        engine.build()
                elif command == "epoch":
                    mesh = message[6]
                    if mesh is not None:
                        loop.attach_mesh(mesh)
                    reply = loop.run_epoch(*message[1:6])
                elif command == "accept":
                    engine.accept_remote(read_records(inbox))
                elif command == "snapshot":
                    # Protocol-5 out-of-band container in a one-off blob
                    # segment: column data is memcpy'd, never pickled.
                    parts = state_oob_parts(engine, message[1])
                    reply = write_blob(f"{spec.agent_id}-snap", parts)
                elif command == "restore":
                    if not engine.built:
                        engine.build()
                    _cmd, name, nbytes, window = message
                    restore_snapshot(engine, read_blob(name, nbytes), window,
                                     spec.scenario.name)
                elif command == "finish":
                    engine.finish()
                    reply = _report_of(engine, loop.busy_s, loop.wait_s)
                    reply.windows = _pack_windows(reply.windows)
                else:
                    raise ClusterError(f"unknown command {command!r}")
                conn.send(("ok", reply))
            except Exception:
                ctl.abort()  # peers must not wait on us at a barrier
                conn.send(("err", traceback.format_exc()))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        loop.close_mesh()
        inbox.close()
        ctl.close()
        conn.close()


# --- process transport: the coordinator side ----------------------------------

@dataclass
class _Worker:
    """Parent-side handle of one agent's worker process."""

    process: Any
    conn: Any
    #: coordinator -> worker ring (administrative record frames).
    inbox: Optional[ShmRing] = None
    alive: bool = True
    #: Generation of the ring mesh this worker has attached.
    mesh_gen: int = 0


def _fork_or_spawn() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods
                                      else "spawn")


class ProcessTransport(Transport):
    """One worker process per agent, agents driving the window loop.

    :meth:`run_windows_all` is the only per-run hot call: one command
    per agent per epoch (see the module doc for the shared-memory
    protocol).  A worker that dies surfaces as :class:`AgentFailure`;
    :meth:`restore` respawns it and loads the checkpoint payload.
    """

    agent_driven = True

    def __init__(self, pin_cpus: Optional[bool] = None,
                 slot_bytes: Optional[int] = None,
                 slots: Optional[int] = None) -> None:
        super().__init__()
        self._ctx = _fork_or_spawn()
        self._workers: List[_Worker] = []
        self.pin_cpus = (os.environ.get("REPRO_PIN_CPUS", "")
                         not in ("", "0", "false", "off")
                         if pin_cpus is None else bool(pin_cpus))
        self._slot_bytes = slot_bytes
        self._slots = slots
        self.ctl: Optional[ControlBlock] = None
        #: Ring mesh: ``mesh[src * n + dst]`` carries src -> dst frames.
        self.mesh: List[Optional[ShmRing]] = []
        self._mesh_gen = 0
        #: Guards the epoch flag and the window total together, so a
        #: concurrent :meth:`progress` never double-counts or dips.
        self._progress_lock = threading.Lock()
        self._in_epoch = False

    def launch(self, specs: Sequence[AgentSpec]) -> None:
        self.specs = list(specs)
        if self.pin_cpus:
            ncpu = os.cpu_count() or 1
            self.specs = [
                dataclasses.replace(spec, pin_cpu=spec.agent_id % ncpu)
                for spec in self.specs
            ]
        self.ctl = ControlBlock.create("ctl", len(self.specs))
        self._new_mesh()
        self._workers = [self._spawn(spec) for spec in self.specs]

    def _spawn(self, spec: AgentSpec) -> _Worker:
        inbox = ShmRing.create(f"{spec.agent_id}-inbox",
                               self._slot_bytes, self._slots)
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_agent_worker, args=(child, spec, inbox.name,
                                        self.ctl.name),
            daemon=True, name=f"dons-agent-{spec.agent_id}",
        )
        process.start()
        child.close()
        return _Worker(process, parent, inbox=inbox)

    def _new_mesh(self) -> None:
        """Mint a fresh ring per ordered agent pair (and drop the old
        ones: attached peers keep their mappings until they re-attach)."""
        self._drop_mesh()
        n = len(self.specs)
        self.mesh = [
            None if src == dst else ShmRing.create(
                f"{src}to{dst}", self._slot_bytes, self._slots)
            for src in range(n) for dst in range(n)
        ]
        self._mesh_gen += 1

    def _drop_mesh(self) -> None:
        for ring in self.mesh:
            if ring is not None:
                ring.unlink()
                ring.close()
        self.mesh = []

    # --- plumbing ---------------------------------------------------------

    def _bury(self, agent_id: int) -> None:
        """Mark a worker dead; reap its process and any blob segment it
        had in flight (the rings stay until :meth:`restore`)."""
        worker = self._workers[agent_id]
        worker.alive = False
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        worker.process.join(timeout=10)
        if worker.process.pid is not None:
            reap_orphans(worker.process.pid)

    def _send(self, agent_id: int, message: tuple, window: int = -1) -> None:
        worker = self._workers[agent_id]
        if not worker.alive:
            raise AgentFailure(agent_id, window)
        try:
            worker.conn.send(message)
        except OSError:
            self._bury(agent_id)
            raise AgentFailure(agent_id, window)

    def _recv(self, agent_id: int, window: int = -1) -> Any:
        worker = self._workers[agent_id]
        if not worker.alive:
            raise AgentFailure(agent_id, window)
        try:
            status, value = worker.conn.recv()
        except (EOFError, OSError):
            self._bury(agent_id)
            raise AgentFailure(agent_id, window)
        if status == "err":
            raise ClusterError(f"agent {agent_id} worker error:\n{value}")
        return value

    def _call(self, agent_id: int, message: tuple, window: int = -1) -> Any:
        self._send(agent_id, message, window)
        return self._recv(agent_id, window)

    def _fan_out(self, message: tuple, window: int = -1) -> List[Any]:
        """Send to every worker, then collect every reply — the workers
        run the command concurrently."""
        for agent_id in range(len(self._workers)):
            self._send(agent_id, message, window)
        return [self._recv(agent_id, window)
                for agent_id in range(len(self._workers))]

    # --- hosting API ------------------------------------------------------

    def build_all(self) -> None:
        self._fan_out(("build",))

    def run_windows_all(self, current: int, end_window: Optional[int] = None,
                        max_windows: Optional[int] = None,
                        batch_windows: int = 1) -> List[EpochReply]:
        """Run one epoch: every agent loops over the cluster windows
        after ``current`` — stopping before ``end_window``, after
        ``max_windows`` rounds or when nothing is left — exchanging
        records peer to peer.  Merges the agents' channel counts into
        the traffic stats and returns their replies.  A worker that dies
        mid-epoch raises the abort word and surfaces as
        :class:`AgentFailure` once the survivors have stood down.
        """
        for agent_id, worker in enumerate(self._workers):
            if not worker.alive:
                raise AgentFailure(agent_id, current + 1)
        ctl = self.ctl
        ctl.reset()
        timed = self._timed()
        mesh = tuple(r.name if r is not None else None for r in self.mesh)
        sent: List[int] = []
        failed: List[int] = []
        for agent_id, worker in enumerate(self._workers):
            stale = worker.mesh_gen != self._mesh_gen
            try:
                self._send(agent_id, (
                    "epoch", current, end_window, max_windows,
                    batch_windows, timed, mesh if stale else None))
            except AgentFailure:
                ctl.abort()
                failed.append(agent_id)
                break
            worker.mesh_gen = self._mesh_gen
            sent.append(agent_id)
        replies: List[Optional[EpochReply]] = [None] * len(self._workers)
        error = None
        pending = {self._workers[a].conn: a for a in sent}
        self._in_epoch = True
        try:
            while pending:
                for conn in wait_connections(list(pending)):
                    agent_id = pending.pop(conn)
                    try:
                        replies[agent_id] = self._recv(agent_id, current + 1)
                    except AgentFailure:
                        ctl.abort()
                        failed.append(agent_id)
                    except ClusterError as exc:
                        ctl.abort()
                        error = error or exc
        finally:
            with self._progress_lock:
                self._in_epoch = False
                if not failed and error is None:
                    self.stats.windows += replies[0].rounds
        if failed:
            survivors = [r for r in replies if r is not None]
            reached = max((r.cursor for r in survivors), default=current)
            raise AgentFailure(failed[0], reached + 1)
        if error is not None:
            raise error
        self.window_times = [r.busy_s for r in replies]
        rounds = replies[0].rounds
        n = len(self._workers)
        self.stats.finish_signals += rounds * n * (n - 1)
        for src, reply in enumerate(replies):
            for dst, (messages, records, nbytes) in reply.channels.items():
                channel = self.channels[src, dst]
                channel.messages += messages
                channel.records += records
                channel.bytes_sent += nbytes
        return replies

    def progress(self) -> Tuple[Optional[int], int]:
        """``(cursor, windows)``: the window cursor the agents published
        inside the running epoch (``None`` before its first round or
        between epochs) and the FINISH barriers passed so far."""
        with self._progress_lock:
            if not self._in_epoch:
                return None, self.stats.windows
            cursor, rounds = self.ctl.progress()
            return (cursor if rounds else None), self.stats.windows + rounds

    def accept(self, agent_id: int, records: List[Record]) -> None:
        inbox = self._workers[agent_id].inbox
        inbox.mark_consumed(inbox.next_seq - 1)  # every call is answered
        if write_records(inbox, records, "inbox"):
            self._count("transport.shm_fallbacks")
        else:
            self._count("transport.shm_frames")
            self._count("transport.shm_bytes", len(records) * RECORD_BYTES)
        self._call(agent_id, ("accept",))

    def snapshot_all(self, window: int) -> List[bytes]:
        payloads = []
        for name, nbytes in self._fan_out(("snapshot", window), window):
            payloads.append(read_blob(name, nbytes))
            self._count("transport.shm_bytes", nbytes)
        return payloads

    def kill(self, agent_id: int) -> None:
        """Fault injection: terminate the worker process outright.  Its
        rings are kept until :meth:`restore` replaces them."""
        worker = self._workers[agent_id]
        if worker.process.is_alive():
            worker.process.terminate()
        self._bury(agent_id)

    def alive(self, agent_id: int) -> bool:
        return self._workers[agent_id].alive

    def restore(self, agent_id: int, payload: bytes, window: int) -> None:
        """Load a snapshot into an agent; a dead one is first respawned
        with a fresh inbox, and the ring mesh is re-minted so no frame
        of its previous incarnation can be read."""
        worker = self._workers[agent_id]
        if not worker.alive:
            worker.inbox.unlink()
            worker.inbox.close()
            self._workers[agent_id] = self._spawn(self.specs[agent_id])
            self._call(agent_id, ("build",))
            self._new_mesh()
        name, nbytes = write_blob(f"{agent_id}-restore", [payload])
        self._call(agent_id, ("restore", name, nbytes, window))

    def finish_all(self) -> List[AgentReport]:
        reports = self._fan_out(("finish",))
        for report in reports:
            report.windows = _unpack_windows(report.windows)
        return reports

    def close(self) -> None:
        if self.ctl is not None:
            self.ctl.abort()  # an agent still inside an epoch stands down
        # Fan the exit out first so the workers tear down concurrently.
        exiting = []
        for agent_id, worker in enumerate(self._workers):
            if worker.alive:
                try:
                    self._send(agent_id, ("exit",))
                    exiting.append(agent_id)
                except AgentFailure:
                    pass
        for agent_id in exiting:
            try:
                self._recv(agent_id)
            except ClusterError:
                pass
        for worker in self._workers:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.process.join(timeout=10)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=10)
            if worker.inbox is not None:
                worker.inbox.unlink()
                worker.inbox.close()
                worker.inbox = None
            worker.alive = False
        self._drop_mesh()
        if self.ctl is not None:
            self.ctl.unlink()
            self.ctl.close()
            self.ctl = None


def make_transport(kind: Union[str, Transport, None]) -> Transport:
    """Resolve a transport argument: an instance, a name, or ``None``.

    ``"shm"`` is an alias of ``"process"`` (the process transport always
    moves its frames through shared memory)."""
    if kind is None:
        return LocalTransport()
    if isinstance(kind, Transport):
        return kind
    if kind == "local":
        return LocalTransport()
    if kind in ("process", "shm"):
        return ProcessTransport()
    raise ClusterError(f"unknown transport {kind!r}")

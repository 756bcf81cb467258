"""Cluster runtime: the distributed run as one :class:`Engine`.

PR 1 unified the single-machine engines behind ``build`` / ``advance``
/ ``finalize`` and one :class:`~repro.core.runner.EngineRunner` loop.
:class:`ClusterEngine` brings the distributed stack into the same shape.
Over the coordinator-driven :class:`~repro.cluster.transport.LocalTransport`
one ``advance()`` executes one cluster-wide lookahead window end to end —

1. agree on the window (min over the agents' ``peek_next_window``, the
   conservative synchronization of §4.2),
2. run any scheduled live migration (Appendix A),
3. execute the window on every agent through the transport,
4. flush outboxes as batched RPCs, drain them into their destinations,
   count the N*(N-1) FINISH signals,
5. optionally snapshot every agent for fault tolerance.

Over an agent-driven transport (the
:class:`~repro.cluster.transport.ProcessTransport`) the agents run steps
1, 3 and 4 themselves over shared memory, and one ``advance()`` is one
*epoch*: every window up to the next control point the coordinator owns
— a ``checkpoint_every`` boundary, a :class:`FaultPlan` window, the
duration cut or the end of the run.

Because it is an :class:`~repro.core.runner.Engine`, ``EngineRunner``,
``python -m repro profile --cluster`` and checkpoint resume all drive a
distributed run through exactly the loop they drive a ``DodEngine``
through.

Observability: each agent owns its :class:`InstrumentationBus`; at
``finalize()`` the per-agent streams come back in the agents'
:class:`~repro.cluster.transport.AgentReport` and are merged into the
cluster-level bus — counters summed, per-window / per-system timers
tagged ``a<id>:<system>`` — so the profiler and the time-cost model
(:func:`repro.partition.measured_machine_times`) consume *measured*
per-agent window costs.

Fault tolerance: with ``checkpoint_every`` (or a ``fault``) set, the
runtime keeps the latest per-agent snapshots.  When the transport
reports an :class:`~repro.cluster.transport.AgentFailure`, the
coordinator-driven path restores the dead agent, replays the inbound
batches logged since the snapshot and re-runs the missed windows with
outboxes discarded; the agent-driven path rolls every agent back to
the snapshot (a consistent cut: channels drained) and re-runs the
epoch.  Either way the merged trace stays byte-identical to the
fault-free run.
"""

from __future__ import annotations

import copy
import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .agent import AgentSpec
from .fault import FaultPlan, RecoveryStats
from .transport import (
    AgentFailure, EpochReply, LocalTransport, Record, Transport,
    make_transport,
)
from ..core.instrument import InstrumentationBus
from ..core.telemetry import WAIT_MS_BUCKETS
from ..des.partition_types import Partition
from ..errors import ClusterError
from ..metrics import SimResults, TraceRecorder


class ClusterEngine:
    """N agents, one window per ``advance()``, any transport."""

    name = "dons-cluster"

    def __init__(
        self,
        specs: Sequence[AgentSpec],
        transport: Union[Transport, str, None] = None,
        schedule: Optional[List[Tuple[int, Partition]]] = None,
        checkpoint_every: Optional[int] = None,
        fault: Optional[FaultPlan] = None,
        batch_windows: Optional[int] = None,
        watchdog: Union[bool, None, "object"] = None,
    ) -> None:
        if not specs:
            raise ClusterError("no agents")
        self.specs = list(specs)
        self.transport = make_transport(transport)
        self.schedule = sorted(schedule or [], key=lambda s: s[0])
        self.fault = fault
        self.checkpoint_every = checkpoint_every
        if batch_windows is None:
            batch_windows = int(os.environ.get("REPRO_BATCH_WINDOWS") or 1)
        #: Upper bound on how many lookahead windows one ``advance()``
        #: may cover without a barrier round, when the agents' quiet
        #: horizons prove no cross-agent traffic in the span.
        self.batch_windows = max(1, batch_windows)
        self._fault_tolerant = fault is not None or checkpoint_every is not None
        if self._fault_tolerant and self.schedule:
            raise ClusterError(
                "fault tolerance and live migration cannot be combined: "
                "a restored agent would resume under a stale partition"
            )

        self.bus = InstrumentationBus()
        # Telemetry on the cluster bus follows the agents: any spec with
        # it on (or the REPRO_TELEMETRY switch) lights up the
        # coordinator-side spans/metrics too, so one exported timeline
        # holds both the agent tracks and the barrier-wait slices.
        if (any(spec.telemetry for spec in self.specs)
                or os.environ.get("REPRO_TELEMETRY", "")
                not in ("", "0", "false", "off")):
            self.bus.enable_telemetry()
            self.bus.metrics.histogram("cluster.barrier_wait_ms",
                                       WAIT_MS_BUCKETS)
        self.transport.bus = self.bus
        #: Per-agent busy / barrier-wait seconds — measured by the agents
        #: themselves on an agent-driven transport, split from the
        #: serial window times in-process; exported as ``a<i>:busy_s`` /
        #: ``a<i>:barrier_wait_s`` gauges at finalize — the exact series
        #: :func:`repro.partition.refit_cluster_spec` takes as
        #: ``measured_times``.
        self._busy_s = [0.0] * len(self.specs)
        self._wait_s = [0.0] * len(self.specs)
        #: Stall/slowness detector over the same measured window times
        #: (:class:`repro.metrics.live.ClusterWatchdog`).  ``None`` off,
        #: ``True`` forced on, default (``None`` argument) arms it when
        #: the bus is telemetered or ``$REPRO_WATCHDOG`` is set; an
        #: instance is adopted as-is.  An armed watchdog makes the
        #: transport measure per-agent window times even with telemetry
        #: off (``track_times``) — timing without span capture.
        self.watchdog = self._make_watchdog(watchdog)
        if self.watchdog is not None:
            self.transport.track_times = True
        self.results = SimResults(self.name, self.specs[0].scenario.name, 0)
        self.per_agent: List[SimResults] = []
        self.migrations: List = []
        self.recoveries: List[RecoveryStats] = []

        self._lookahead = self.specs[0].scenario.lookahead_ps
        self._cursor = -1
        #: Agent-driven transports: the window the agents agreed to run
        #: next (``None`` before the first epoch), and whether nothing
        #: runnable is left.
        self._next: Optional[int] = None
        self._done = False
        self._built = False
        self._finalized = False
        #: An unrecoverable failure: finalize only shuts down.
        self._failed = False

        # Fault-tolerance state: latest snapshots + deliveries since.
        self._snapshots: Optional[List[bytes]] = None
        self._snap_window = -1
        self._replay_log: Dict[int, List[Record]] = {}
        self._windows_since_snap: List[int] = []
        #: Agent-driven rollback: windows run since the snapshot, and the
        #: traffic accounting as of the snapshot.
        self._rounds_since_snap = 0
        self._snap_accounting = None

    def _make_watchdog(self, arg: Union[bool, None, "object"]):
        if arg is False:
            return None
        if arg is None:
            armed = self.bus.telemetry or os.environ.get(
                "REPRO_WATCHDOG", "") not in ("", "0", "false", "off")
            if not armed:
                return None
            arg = True
        if arg is True:
            from ..metrics.live import ClusterWatchdog
            return ClusterWatchdog(len(self.specs))
        return arg

    # --- convenience views ------------------------------------------------

    @property
    def built(self) -> bool:
        return self._built

    @property
    def stats(self):
        return self.transport.stats

    @property
    def channels(self):
        return self.transport.channels

    @property
    def agents(self):
        """The in-process engines (LocalTransport only) — migration and
        cluster checkpointing reach through this."""
        engines = getattr(self.transport, "engines", None)
        if engines is None:
            raise ClusterError(
                f"{type(self.transport).__name__} does not expose "
                "in-process engines"
            )
        return engines

    # --- Engine protocol --------------------------------------------------

    def build(self) -> None:
        """Launch and build every agent; verify cluster-wide agreement."""
        self._check_agreement()
        self.transport.launch(self.specs)
        if self.schedule and not isinstance(self.transport, LocalTransport):
            raise ClusterError(
                "live migration schedules require the LocalTransport "
                "(state moves between in-process engines)"
            )
        self.transport.build_all()
        if self._fault_tolerant:
            self._take_snapshots(self._cursor)
        self._built = True

    def _check_agreement(self) -> None:
        """Every agent must run the same scenario under the same plan —
        window agreement (§4.2) is meaningless otherwise.  The old
        controller silently trusted agent 0; mismatches now fail loudly
        at build time."""
        first = self.specs[0]
        for spec in self.specs[1:]:
            if spec.scenario.name != first.scenario.name:
                raise ClusterError(
                    f"agent {spec.agent_id} runs scenario "
                    f"{spec.scenario.name!r}, agent 0 runs "
                    f"{first.scenario.name!r}"
                )
            if spec.scenario.duration_ps != first.scenario.duration_ps:
                raise ClusterError(
                    f"agent {spec.agent_id} disagrees on duration_ps: "
                    f"{spec.scenario.duration_ps} vs "
                    f"{first.scenario.duration_ps}"
                )
            if spec.scenario.lookahead_ps != first.scenario.lookahead_ps:
                raise ClusterError(
                    f"agent {spec.agent_id} disagrees on the lookahead: "
                    f"{spec.scenario.lookahead_ps} vs "
                    f"{first.scenario.lookahead_ps}"
                )
            if spec.partition.assignment != first.partition.assignment:
                raise ClusterError(
                    f"agent {spec.agent_id} holds a different partition "
                    "than agent 0"
                )

    def advance(self) -> bool:
        """Execute one cluster-wide lookahead window (one epoch on an
        agent-driven transport); False when done."""
        if self.transport.agent_driven:
            return self._advance_epoch()
        transport = self.transport
        bus = self.bus
        telemetry = bus.telemetry
        _w0 = bus.now() if telemetry else 0.0
        peeks = transport.peek_all(self._cursor)
        if telemetry:
            bus.span_add("agree", _w0, bus.now(), "cluster")
        live = [w for w in peeks if w is not None]
        if not live:
            return False
        window = min(live)
        duration = self.specs[0].scenario.duration_ps
        if duration is not None and window * self._lookahead > duration:
            return False

        if (self.batch_windows > 1 and not self._fault_tolerant
                and self.fault is None and not self.schedule):
            limit = window + self.batch_windows
            if duration is not None:
                limit = min(limit, duration // self._lookahead + 1)
            if limit > window + 1:
                horizons = transport.quiet_all(self._cursor, limit)
                horizon = min(horizons)
                if horizon > window + 1:
                    return self._advance_span(window, horizon, _w0)

        self._maybe_migrate(window)
        if (self.fault is not None and not self.fault.fired
                and window >= self.fault.at_window):
            self.fault.fired = True
            transport.kill(self.fault.agent)

        outboxes = transport.run_window_all(window)
        for agent_id, out in enumerate(outboxes):
            if isinstance(out, AgentFailure):
                outboxes[agent_id] = self._recover(agent_id, window)
        self._window_times(window, transport.window_times)
        if telemetry:
            _f0 = bus.now()

        for agent_id, out in enumerate(outboxes):
            for dst, records in sorted(out.items()):
                transport.send_batch(agent_id, dst, records)
        delivered = transport.deliver_pending()
        transport.barrier()
        self.bus.count("cluster.windows")
        if telemetry:
            now = bus.now()
            bus.span_add("flush", _f0, now, "cluster")
            bus.span_add("window", _w0, now, "cluster", {"index": window})
        self._cursor = window

        if self._fault_tolerant:
            for dst, records in delivered.items():
                self._replay_log.setdefault(dst, []).extend(records)
            self._windows_since_snap.append(window)
            if (self.checkpoint_every
                    and len(self._windows_since_snap) >= self.checkpoint_every):
                self._take_snapshots(window)
        return True

    def _advance_span(self, window: int, horizon: int, _w0: float) -> bool:
        """Barrier-free batched span: every agent runs its scheduled
        windows in ``(cursor, horizon)`` back to back.

        Taken only after every agent's quiet horizon proved no
        cross-agent record can be produced in the span (see
        docs/ARCHITECTURE.md, "Why K-window batching is safe"), so the
        whole span costs one RPC round and one FINISH barrier instead
        of ``horizon - window`` of each.
        """
        transport = self.transport
        bus = self.bus
        telemetry = bus.telemetry
        outs = transport.run_windows_all(self._cursor, horizon)
        for agent_id, (_last, outbox) in enumerate(outs):
            if outbox:
                # The quiet-horizon bound is a proof obligation, not a
                # heuristic: an agent emitting inside the span means the
                # distance table or the lookahead discipline is broken.
                raise ClusterError(
                    f"agent {agent_id} emitted cross-agent records inside "
                    f"a quiet span [{window}, {horizon})"
                )
        self._window_times(window, transport.window_times)
        transport.barrier()
        bus.count("cluster.windows")
        bus.count("cluster.batch_spans")
        bus.count("cluster.batched_windows", horizon - window)
        if telemetry:
            bus.span_add("window", _w0, bus.now(), "cluster",
                         {"index": window, "span": horizon - window})
        self._cursor = horizon - 1
        return True

    def _advance_epoch(self) -> bool:
        """One epoch of an agent-driven transport: the agents run every
        window up to the next control point the coordinator owns."""
        if self._done:
            return False
        transport = self.transport
        bus = self.bus
        telemetry = bus.telemetry
        fault = self.fault
        if (fault is not None and not fault.fired and self._next is not None
                and self._next >= fault.at_window):
            fault.fired = True
            transport.kill(fault.agent)
        _w0 = bus.now() if telemetry else 0.0
        end_window = (fault.at_window
                      if fault is not None and not fault.fired else None)
        max_windows = None
        batch = self.batch_windows
        if self._fault_tolerant:
            batch = 1
            if self.checkpoint_every:
                max_windows = self.checkpoint_every - self._rounds_since_snap
        if telemetry:
            bus.span_add("agree", _w0, bus.now(), "cluster")
        try:
            replies = transport.run_windows_all(self._cursor, end_window,
                                                max_windows, batch)
        except AgentFailure as failure:
            self._rollback(failure)
            return True
        except BaseException:
            # Agents may still be inside the epoch: finalize must only
            # shut them down, never ask them for results.
            self._failed = True
            raise
        _f0 = bus.now() if telemetry else 0.0
        lead = replies[0]
        self._cursor = lead.cursor
        self._next = lead.next_window
        duration = self.specs[0].scenario.duration_ps
        if self._next is None or (duration is not None and
                                  self._next * self._lookahead > duration):
            self._done = True
        if lead.rounds:
            bus.count("cluster.windows", lead.rounds)
        if lead.spans:
            bus.count("cluster.batch_spans", lead.spans)
            bus.count("cluster.batched_windows", lead.batched_windows)
        self._epoch_times(replies)
        if telemetry:
            now = bus.now()
            bus.span_add("flush", _f0, now, "cluster")
            bus.span_add("window", _w0, now, "cluster",
                         {"index": self._cursor, "rounds": lead.rounds})
        if self._fault_tolerant:
            self._rounds_since_snap += lead.rounds
            if (self.checkpoint_every and not self._done
                    and self._rounds_since_snap >= self.checkpoint_every):
                self._take_snapshots(self._cursor)
        return lead.rounds > 0 or not self._done

    def _epoch_times(self, replies: List[EpochReply]) -> None:
        """Fold the agents' own busy / barrier-wait measurements in."""
        for agent_id, reply in enumerate(replies):
            self._busy_s[agent_id] += reply.busy_s
            self._wait_s[agent_id] += reply.wait_s
        if self.watchdog is not None and replies[0].times is not None:
            for k, (window, _busy) in enumerate(replies[0].times):
                self.watchdog.observe(
                    window, [reply.times[k][1] for reply in replies],
                    self.bus)

    def progress(self) -> Dict[str, object]:
        """In-flight progress snapshot, same shape as
        :meth:`repro.core.engine.DodEngine.progress`.

        Inside an epoch it reads the window cursor the agents publish in
        shared memory, so it stays live while ``advance()`` blocks.
        Per-agent event counts only merge at ``finalize()``, so the
        ``events`` field stays 0 mid-run on a cluster engine — the live
        plane documents this and consumers fall back to window progress.
        """
        cursor = self._cursor
        if self.transport.agent_driven:
            live, windows = self.transport.progress()
            if live is not None:
                cursor = live
        else:
            windows = self.bus.counters.get("cluster.windows", 0)
        sim_ps = (cursor + 1) * self._lookahead if cursor >= 0 else 0
        duration = self.specs[0].scenario.duration_ps
        return {
            "windows": windows,
            "sim_ps": sim_ps,
            "duration_ps": duration,
            "events": self.results.events.total,
            "done": min(1.0, sim_ps / duration) if duration else None,
        }

    def _window_times(self, window: int, times: List[float]) -> None:
        """Split one coordinator-driven window into per-agent busy time
        and barrier wait (the agents ran serially, so the slowest waits
        zero); with telemetry also as ``a<i>:barrier-wait`` timeline
        slices and ``cluster.barrier_wait_ms`` samples."""
        if not times:
            return
        bus = self.bus
        if self.watchdog is not None:
            self.watchdog.observe(window, times, bus)
        telemetry = bus.telemetry
        t_done = bus.now() if telemetry else 0.0
        t_max = max(times)
        for agent_id, busy in enumerate(times):
            wait = t_max - busy
            self._busy_s[agent_id] += busy
            self._wait_s[agent_id] += wait
            if telemetry:
                bus.metrics.record("cluster.barrier_wait_ms", wait * 1e3)
                if wait > 0.0:
                    bus.span_add(f"a{agent_id}:barrier-wait",
                                 t_done - wait, t_done, "cluster",
                                 {"window": window})

    def finalize(self) -> SimResults:
        """Collect per-agent results and bus streams, merge, shut down."""
        if self._finalized:
            return self.results
        self._finalized = True
        try:
            if self._failed:
                return self.results
            reports = self.transport.finish_all()
            self.per_agent = [report.results for report in reports]
            self.results = merge_results(
                self.per_agent, self.specs[0].scenario.name
            )
            for report in reports:
                self.bus.merge_child(
                    f"a{report.agent_id}", report.counters,
                    report.totals, report.windows,
                    spans=report.spans, metrics=report.metrics,
                    epoch_wall=report.epoch_wall,
                )
            if self.bus.telemetry or self.watchdog is not None:
                # Window times were measured (spans on, or the watchdog
                # asked for them even with telemetry off): export them
                # so the measure -> refit_cluster_spec loop closes.
                for agent_id in range(len(self.specs)):
                    self.bus.metrics.gauge(f"a{agent_id}:busy_s",
                                           self._busy_s[agent_id])
                    self.bus.metrics.gauge(f"a{agent_id}:barrier_wait_s",
                                           self._wait_s[agent_id])
            self.transport.finalize_stats()
        finally:
            self.transport.close()
        return self.results

    def run(self) -> List[SimResults]:
        """Legacy convenience: run to completion, per-agent results."""
        return self.run_from(-1)

    def run_from(self, current: int) -> List[SimResults]:
        """Drive already-built (or checkpoint-restored) agents from the
        given window cursor to completion."""
        from ..core.runner import EngineRunner
        if not self._built:
            self.build()
        self._cursor = current
        EngineRunner(self).run()
        return self.per_agent

    # --- migration --------------------------------------------------------

    def _maybe_migrate(self, window: int) -> None:
        from .migration import migrate
        while self.schedule and self.schedule[0][0] <= window:
            _boundary, new_partition = self.schedule.pop(0)
            agents = self.agents
            old_partition = agents[0].partition
            if new_partition.assignment != old_partition.assignment:
                self.migrations.append(
                    migrate(agents, old_partition, new_partition)
                )

    # --- fault tolerance --------------------------------------------------

    def _take_snapshots(self, window: int) -> None:
        self._snapshots = self.transport.snapshot_all(window)
        self._snap_window = window
        self._replay_log = {}
        self._windows_since_snap = []
        self._rounds_since_snap = 0
        if self.transport.agent_driven:
            transport = self.transport
            self._snap_accounting = copy.deepcopy(
                (transport.channels, transport.stats,
                 self.bus.counters.get("cluster.windows", 0)))
        self.bus.count("cluster.checkpoints")

    def _rollback(self, failure: AgentFailure) -> None:
        """Agent-driven recovery: restore *every* agent from the latest
        snapshot — the dead one into a respawned worker — and rewind the
        traffic accounting to it; the next epoch re-runs the windows
        since.  The snapshot is a consistent cut (every ring drained),
        so the re-run is the original timeline again."""
        agent_id = failure.agent_id
        failed_window = max(failure.window, self._next or 0)
        if self._snapshots is None:
            self._failed = True
            raise ClusterError(
                f"agent {agent_id} died at window {failed_window} and no "
                "checkpoint exists (enable checkpoint_every)"
            ) from failure
        transport = self.transport
        replayed = self._rounds_since_snap
        with self.bus.span("replay", "transport", agent=agent_id,
                           window=failed_window,
                           from_window=self._snap_window):
            for agent in range(len(self.specs)):
                transport.restore(agent, self._snapshots[agent],
                                  self._snap_window)
        channels, stats, windows = copy.deepcopy(self._snap_accounting)
        transport.channels, transport.stats = channels, stats
        self.bus.counters["cluster.windows"] = windows
        self._cursor = self._snap_window
        self._next = None
        self._done = False
        self._rounds_since_snap = 0
        self.recoveries.append(RecoveryStats(
            agent=agent_id,
            failed_window=failed_window,
            restored_from_window=self._snap_window,
            windows_replayed=replayed,
        ))
        self.bus.count("cluster.recoveries")

    def _recover(self, agent_id: int, window: int) -> Dict[int, List[Record]]:
        """Restore a dead agent, replay its missed inputs, catch it up,
        and run the window it failed on.  Returns that window's outbox."""
        if self._snapshots is None:
            raise ClusterError(
                f"agent {agent_id} died at window {window} and no "
                "checkpoint exists (enable checkpoint_every)"
            )
        transport = self.transport
        with self.bus.span("replay", "transport", agent=agent_id,
                           window=window,
                           from_window=self._snap_window):
            transport.restore(agent_id, self._snapshots[agent_id],
                              self._snap_window)
            # Replay the batched RPCs peers delivered since the snapshot
            # — their channels accounted them once already, so they go
            # straight into the restored calendar.
            log = self._replay_log.get(agent_id, [])
            if log:
                transport.accept(agent_id, list(log))
            # Re-run the windows the cluster executed since the snapshot.
            # Outboxes are discarded: the peers received those batches in
            # the original timeline, and re-execution is deterministic.
            for past in self._windows_since_snap:
                transport.run_window(agent_id, past)
        stats = RecoveryStats(
            agent=agent_id,
            failed_window=window,
            restored_from_window=self._snap_window,
            windows_replayed=len(self._windows_since_snap),
            records_replayed=len(log),
        )
        self.recoveries.append(stats)
        self.bus.count("cluster.recoveries")
        return transport.run_window(agent_id, window)


def merge_results(per_agent: List[SimResults], scenario_name: str) -> SimResults:
    """Aggregate agent results the way the Cluster Controller reports."""
    merged = SimResults("dons-cluster", scenario_name, 0)
    merged.trace = TraceRecorder(
        per_agent[0].trace.level if per_agent[0].trace else 0
    )
    for res in per_agent:
        merged.end_time_ps = max(merged.end_time_ps, res.end_time_ps)
        merged.events.add(res.events)
        merged.drops += res.drops
        merged.marks += res.marks
        merged.tx_bytes += res.tx_bytes
        merged.rtt_samples.extend(res.rtt_samples)
        for node, count in res.node_events.items():
            merged.node_events[node] = merged.node_events.get(node, 0) + count
        for flow_id, fr in res.flows.items():
            have = merged.flows.get(flow_id)
            if have is None or (fr.complete_ps is not None
                                and have.complete_ps is None):
                merged.flows[flow_id] = fr
        if res.trace:
            merged.trace.entries.extend(res.trace.entries)
    merged.rtt_samples.sort()
    return merged

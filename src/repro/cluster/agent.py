"""DONS Agent: one machine's share of a distributed simulation (§3.1).

An Agent wraps the single-machine DOD engine, restricted to its
partition: its Simulation Builder only instantiates sender state for
flows starting locally, and its Runner's TransmitSystem hands packets
whose next hop lives on another machine to an outbox instead of the
local calendar.  The outboxes move as batched RPCs between windows —
through the coordinator in-process, peer to peer over shared memory
across processes (:mod:`repro.cluster.transport`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.engine import DodEngine
from ..des.partition_types import Partition
from ..metrics import TraceLevel
from ..protocols.egress import EgressPort
from ..protocols.packet import Row
from ..scenario import Scenario


@dataclass(frozen=True)
class AgentSpec:
    """Everything needed to (re)construct one agent's engine.

    The spec — not the engine — is what crosses a transport boundary: a
    :class:`~repro.cluster.transport.ProcessTransport` pickles it into
    the worker process, and fault recovery uses it to rebuild a dead
    agent before restoring the checkpoint payload.
    """

    agent_id: int
    scenario: Scenario
    partition: Partition
    trace_level: TraceLevel = TraceLevel.NONE
    workers: int = 1
    #: ECS table/system backend ("python" or "numpy"); ``None`` defers to
    #: the engine's own resolution (``REPRO_BACKEND`` env, then "python"),
    #: re-resolved in the worker process a ProcessTransport spawns.
    backend: Optional[str] = None
    #: Span recording + metric sampling on the agent's bus; the spans
    #: come back in the AgentReport and merge into the cluster timeline.
    telemetry: bool = False
    #: PARSIR-style placement: pin the hosting worker process to this
    #: CPU at startup (``None`` = leave scheduling to the OS).  Set by
    #: the ProcessTransport when pinning is enabled; purely an execution
    #: hint, never part of simulation state.
    pin_cpu: Optional[int] = None

    def make(self) -> "AgentEngine":
        return AgentEngine(self.agent_id, self.scenario, self.partition,
                           self.trace_level, self.workers, self.backend,
                           self.telemetry)


def spec_of(engine: "AgentEngine") -> AgentSpec:
    """Recover the construction recipe of an existing agent engine."""
    return AgentSpec(engine.agent_id, engine.scenario, engine.partition,
                     TraceLevel(engine.trace.level), engine.pool.workers,
                     engine.backend, engine.bus.telemetry)


class AgentEngine(DodEngine):
    """The DOD engine of one cluster machine."""

    name = "dons-agent"

    def __init__(
        self,
        agent_id: int,
        scenario: Scenario,
        partition: Partition,
        trace_level: TraceLevel = TraceLevel.NONE,
        workers: int = 1,
        backend: Optional[str] = None,
        telemetry: bool = False,
    ) -> None:
        # ``False`` defers to REPRO_TELEMETRY (like ``backend=None``), so
        # the env switch reaches worker processes a transport spawns.
        super().__init__(scenario, trace_level, workers, backend=backend,
                         telemetry=telemetry or None)
        self.agent_id = agent_id
        self._partition = partition
        #: per remote agent: (arrival_ps, node, row) records of this window
        self.outbox: Dict[int, List[Tuple[int, int, Row]]] = {}
        #: boundary-distance table, keyed by the partition object so a
        #: migration rebind invalidates it.
        self._quiet_cache: Optional[Tuple[Partition, Dict[int, int]]] = None

    @property
    def partition(self) -> Partition:
        return self._partition

    @partition.setter
    def partition(self, partition: Partition) -> None:
        # A migration rebind moves port peers on or off this agent: the
        # fused transmit sweep's per-port locality column is stale.
        self._partition = partition
        self._tx_static = None

    def peer_local_column(self) -> List[bool]:
        """Per egress port: does its peer live on this agent?  Remote
        peers' deliveries go to the outbox, local ones take the fused
        transmit sweep's inline path exactly as on a single machine."""
        part_of = self._partition.part_of
        me = self.agent_id
        return [part_of(port.iface.peer_node) == me for port in self.ports]

    def reported_ports(self) -> List[EgressPort]:
        """Only the ports this agent owns under its current partition.

        A live migration hands a moved port object to its new owner
        while the old owner's port list still references it, so
        reporting every port would count the moved ports' ``tx_bytes``
        and ``marks`` once per agent that ever held them.
        """
        part_of = self._partition.part_of
        me = self.agent_id
        return [port for port in self.ports
                if part_of(port.iface.node) == me]

    def _maybe_init_memo(self) -> None:
        """Agents never fast-forward: a window with cross-agent traffic
        pending must run for real so its outbox fills."""

    # --- builder: local endpoints only ------------------------------------

    def build(self) -> None:
        super().build()
        # Drop the flow starts that belong to other machines: the base
        # builder registered every flow; non-local starts must not fire
        # here.  (Sender/receiver tables stay fully allocated — component
        # tables are dense — but remote rows are never visited.  The
        # occupancy index deliberately keeps the emptied windows: the
        # agent still schedules them, as no-ops, in step with the
        # cluster.)
        part_of = self.partition.part_of
        me = self.agent_id
        self.events.retain_nodes(lambda node: part_of(node) == me)

    # --- runner: remote deliveries go to the outbox --------------------------

    def deliver(self, node: int, t: int, row: Row) -> None:
        owner = self._partition.assignment[node]
        if owner == self.agent_id:
            super().deliver(node, t, row)
        else:
            self.outbox.setdefault(owner, []).append((t, node, row))

    def deliver_emissions(self, node: int, delay_ps: int, emissions) -> None:
        owner = self._partition.assignment[node]
        if owner == self.agent_id:
            super().deliver_emissions(node, delay_ps, emissions)
        else:
            out = self.outbox.setdefault(owner, [])
            for row, _start, end in emissions:
                out.append((end + delay_ps, node, row))

    def accept_remote(self, records: List[Tuple[int, int, Row]]) -> None:
        """Install packets received via RPC into the local calendar."""
        for t, node, row in records:
            super().deliver(node, t, row)

    def take_outbox(self) -> Dict[int, List[Tuple[int, int, Row]]]:
        out = self.outbox
        self.outbox = {}
        return out

    def run_window(self, window: int) -> Dict[int, List[Tuple[int, int, Row]]]:
        """One cluster step: execute the window, hand back the outbox.

        An agent with nothing scheduled in ``window`` (no pending entry,
        no busy port) skips it — the cluster agreed on the minimum over
        every agent's next window, so its own next window lies beyond.
        """
        if self.peek_next_window(window - 1) == window:
            self.process_window(window)
        return self.take_outbox()

    # --- multi-window batching (§4.2 extension) ----------------------------

    def run_windows(
        self, current: int, end_window: int,
    ) -> Tuple[int, Dict[int, List[Tuple[int, int, Row]]]]:
        """Run every locally scheduled window in ``(current, end_window)``
        back to back — one batched cluster span, zero barrier rounds.

        Called only after every agent's :meth:`remote_quiet_horizon`
        proved no cross-agent record can be produced before
        ``end_window``; the returned outbox is therefore expected to be
        empty (the caller enforces that as a soundness check).  Returns
        ``(last window run, outbox)``.
        """
        cur = current
        while True:
            nxt = self.peek_next_window(cur)
            if nxt is None or nxt >= end_window:
                break
            cur = self._next_window(cur)  # == nxt; consumes the index
            self.process_window(cur)
        return cur, self.take_outbox()

    def _boundary_distances(self) -> Dict[int, int]:
        """Hops from each local node to its nearest boundary egress.

        Reverse BFS over this agent's local links: a node owning an
        egress whose peer is remote has distance 0; a node one local
        link upstream has distance 1; nodes that cannot reach a
        boundary are absent.  Cached per partition object (a migration
        rebind replaces the partition and thus invalidates the cache).
        """
        cached = self._quiet_cache
        if cached is not None and cached[0] is self.partition:
            return cached[1]
        from collections import deque
        part_of = self.partition.part_of
        me = self.agent_id
        dist: Dict[int, int] = {}
        rev: Dict[int, List[int]] = {}
        queue: deque = deque()
        for iface in self.scenario.topology.interfaces:
            node = iface.node
            if part_of(node) != me:
                continue
            peer = iface.peer_node
            if part_of(peer) != me:
                if node not in dist:
                    dist[node] = 0
                    queue.append(node)
            else:
                rev.setdefault(peer, []).append(node)
        while queue:
            node = queue.popleft()
            d = dist[node] + 1
            for pred in rev.get(node, ()):
                if pred not in dist:
                    dist[pred] = d
                    queue.append(pred)
        self._quiet_cache = (self.partition, dist)
        return dist

    def remote_quiet_horizon(self, current: int, limit: int) -> int:
        """Largest ``H <= limit`` such that this agent provably emits no
        cross-agent record while running windows in ``(current, H)``.

        The bound rides the lookahead discipline: every hop costs at
        least one full window (link delay >= lookahead), so a pending
        entry at ``(window w, node n)`` cannot reach a boundary egress
        before window ``w + dist(n)``, and a busy port's backlog cannot
        reach one before ``current + 1`` (boundary port) or
        ``current + 2 + dist(peer)`` (local port).  The minimum over
        all pending state is the agent's quiet horizon; the coordinator
        batches up to the cluster-wide minimum.
        """
        dist = self._boundary_distances()
        if not dist:
            return limit  # no boundary egress: this agent never emits
        horizon = limit
        for win, nodes in self.events.pending_nodes():
            if win >= horizon:
                break
            for node in nodes:
                d = dist.get(node)
                if d is not None and win + d < horizon:
                    horizon = win + d
        part_of = self.partition.part_of
        me = self.agent_id
        for iface_id in self.active_ports:
            iface = self.ports[iface_id].iface
            peer = iface.peer_node
            if part_of(peer) != me:
                bound = current + 1
            else:
                d = dist.get(peer)
                if d is None:
                    continue
                bound = current + 2 + d
            if bound < horizon:
                horizon = bound
        return horizon

    def finish(self) -> None:
        self.finalize()
        bus = self.bus
        if bus.telemetry and bus.spans:
            # Agents are driven window-by-window by the coordinator, so
            # no EngineRunner wraps them in a "run" span; synthesize one
            # over the whole recorded range so the agent's track nests
            # like a single-machine timeline.
            t0 = min(span[0] for span in bus.spans)
            bus.span_add("run", t0, bus.now(), "run", {"engine": self.name})

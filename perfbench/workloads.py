"""The benchmark's workloads: inputs from a seed, engines with every knob pinned.

Each workload is a batch job with one caller and a closed loop: build
the inputs, run to completion, read the results.  Every engine is
built with the numpy backend, ``TraceLevel.NONE``, telemetry off, one
window per ``advance()`` and fast-forwarding off unless the workload
says otherwise; the environment knobs that could override these are
cleared by ``run.py`` before any run.

``scale="tiny"`` gives a seconds-long copy of each workload with the
same shape, for the self-tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Tuple

DEFAULT_SEED = 1

#: Full-scale sizes (see README.md for how they were chosen).
FATTREE_FLOWS = 64
FATTREE_FLOW_BYTES = 300_000
STEADY_FLOW_BYTES = 12_000_000
WAN_FLOWS = 100_000
WAN_CUT_US = 500.0
CLUSTER_AGENTS = 2


#: Every program module a run reaches.  Child processes import them
#: before timing, so that no import lands in ``setup_s``.
PROGRAM_MODULES = (
    "repro.bench.scenarios", "repro.bench.workloads", "repro.cluster",
    "repro.cluster.shm", "repro.core.engine", "repro.core.memo",
    "repro.core.systems.vectorized", "repro.des",
    "repro.des.partition_types", "repro.metrics", "repro.protocols.egress",
    "repro.protocols.packet", "repro.scenario", "repro.topology",
    "repro.traffic", "repro.units",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable  # (seed, scale, tracer) -> Scenario
    agents: int      # 0: the serial DodEngine; N: an N-agent shm cluster
    ffwd: bool
    #: Workload whose OOD reference digest this one must match.
    reference: str
    #: Layers the traced run must emit spans for.
    layers: Tuple[str, ...]


def _fattree8(seed: int, scale: str, tr):
    import repro.scenario as scenario_mod
    from repro.scenario import make_scenario
    from repro.topology import fattree
    from repro.traffic import Transport, fixed_flows
    from repro.units import GBPS, us

    k, n, size = (8, FATTREE_FLOWS, FATTREE_FLOW_BYTES)
    if scale == "tiny":
        k, n, size = (4, 8, 30_000)
    with tr.span("scenario.build"):
        tr.patch(scenario_mod, "build_fib", "scenario.routing")
        with tr.span("scenario.topology"):
            topo = fattree(k, rate_bps=10 * GBPS, delay_ps=us(1))
        with tr.span("scenario.synthesize"):
            flows = fixed_flows(topo.hosts, n_flows=n, size_bytes=size,
                                transport=Transport.DCTCP, seed=seed)
        return make_scenario(topo, flows, name=f"fattree{k}-dctcp")


def _steady(seed: int, scale: str, tr):
    import repro.bench.scenarios as bench_scenarios
    import repro.scenario as scenario_mod
    from repro.protocols.packet import MSS

    # The seed moves the (common) flow length by whole segments: other
    # inputs, same fast-forward regime.
    base, pairs = (STEADY_FLOW_BYTES, 8)
    if scale == "tiny":
        base, pairs = (400_000, 2)
    flow_bytes = base + random.Random(seed).randrange(64) * MSS
    with tr.span("scenario.build"):
        tr.patch(scenario_mod, "build_fib", "scenario.routing")
        tr.patch(bench_scenarios, "dumbbell", "scenario.topology")
        return bench_scenarios.steady_state_scenario(
            n_pairs=pairs, flow_bytes=flow_bytes)


def _wan_twin(seed: int, scale: str, tr):
    import repro.bench.workloads as bench_workloads
    import repro.scenario as scenario_mod

    n, cut = (WAN_FLOWS, WAN_CUT_US)
    if scale == "tiny":
        n, cut = (2_000, 30.0)
    with tr.span("scenario.build"):
        tr.patch(scenario_mod, "build_fib", "scenario.routing")
        tr.patch(bench_workloads, "abilene", "scenario.topology")
        tr.patch(bench_workloads, "synthesize", "scenario.synthesize")
        return bench_workloads.wan_twin_smoke(n, duration_us=cut, seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload(
        "fattree8-dctcp",
        "Fig. 10 setup: FatTree8, 64 DCTCP flows; forward/transmit-heavy "
        "with queueing and ECN; no UDP flow, so the memo never attaches",
        _fattree8, 0, False, "fattree8-dctcp",
        ("scenario", "engine", "events", "systems")),
    Workload(
        "steady-udp-ffwd",
        "steady UDP dumbbell with ffwd on: nearly every window hits the "
        "memo, so the systems layer is mostly bypassed",
        _steady, 0, True, "steady-udp-ffwd",
        ("scenario", "engine", "events", "systems", "memo")),
    Workload(
        "wan-twin-100k",
        "Abilene DiffServ twin, 100k columnar UDP flows, 0.5 ms cut: "
        "send-heavy and many-flow, large set-up and memory",
        _wan_twin, 0, False, "wan-twin-100k",
        ("scenario", "engine", "events", "systems")),
    Workload(
        "cluster2-fattree8",
        "fattree8-dctcp inputs on a 2-agent shared-memory cluster with a "
        "contiguous partition: the only workload that runs the cluster",
        _fattree8, CLUSTER_AGENTS, False, "fattree8-dctcp",
        ("scenario", "engine", "cluster")),
)}


def make_engine(workload: Workload, scenario):
    """The engine of one run, every knob pinned; not yet built."""
    from repro.metrics import TraceLevel

    if workload.agents:
        from repro.cluster import AgentSpec, ClusterEngine
        from repro.des.partition_types import contiguous_partition

        # The engine DonsManager(ClusterSpec.homogeneous(n),
        # transport="shm", backend="numpy").run(partition) builds.
        partition = contiguous_partition(scenario.topology, workload.agents)
        specs = [AgentSpec(a, scenario, partition, TraceLevel.NONE, 1,
                           "numpy", False)
                 for a in range(workload.agents)]
        return ClusterEngine(specs, transport="shm", batch_windows=1,
                             watchdog=False)
    from repro.core.engine import DodEngine
    return DodEngine(scenario, TraceLevel.NONE, 1, backend="numpy",
                     telemetry=False, batch_windows=1, ffwd=workload.ffwd)

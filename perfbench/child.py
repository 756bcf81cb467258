"""Measured runs of one workload, in a fresh process.

``run.py`` starts this module as a child process and reads the JSON
object on the last line of its standard output.

Modes:

* ``plain``: set up, run to completion and check, repeatedly, until
  ``--budget`` seconds have passed.  Peak memory is read after the
  first run, while ``ru_maxrss`` (a peak that only grows) covers exactly
  one set-up and one run.  No benchmark code sits between the engine's
  calls.
* ``traced``: one set-up and run with the span tracer attached (see
  ``ledger.py``); reports the per-layer ledger and writes the span file.
* ``reference``: the OOD simulator's results digest for the inputs
  (pinned in ``reference.json``, else cached, else computed now).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import multiprocessing
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import ledger  # noqa: E402
from perfbench.digest import inputs_fingerprint, results_digest  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    PROGRAM_MODULES, WORKLOADS, make_engine,
)

PINNED = os.path.join(ROOT, "perfbench", "reference.json")
CACHE_DIR = os.path.join(ROOT, ".perfbench", "reference")
SPAN_DIR = os.path.join(ROOT, ".perfbench", "spans")
AGENT_PREFIX = "dons-agent-"
#: Agent columns the cluster metrics always carry (zero on serial runs).
METRIC_AGENTS = 2


def _status_mb(pid, field: str) -> float:
    """A ``VmRSS``/``VmHWM`` line of /proc/<pid>/status, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _agents():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith(AGENT_PREFIX)]


def _orphans():
    from repro.cluster.shm import list_orphans
    return set(list_orphans())


def _hygiene(agents, orphans_before):
    """What a cluster run left behind: live agents, new shm segments."""
    problems = []
    for proc in agents:
        proc.join(timeout=5)
        if proc.is_alive():
            problems.append(f"agent {proc.name} pid {proc.pid} still alive")
            proc.kill()
            proc.join(timeout=5)
    leaked = _orphans() - orphans_before
    if leaked:
        problems.append(f"orphan segments {sorted(leaked)}")
        from repro.cluster.shm import reap_orphans
        reap_orphans()
    return problems


def one_run(workload, seed: int, scale: str, tr=None) -> dict:
    """Set up, run to completion, finalize and check one run.

    With a tracer, every layer call of the run is recorded on it and the
    per-layer ledger is added to the result.
    """
    traced = tr is not None
    tr = tr or ledger.NullTracer()
    orphans_before = _orphans() if workload.agents else set()
    gc.collect()
    if traced:
        tr.begin("run")
    t0 = time.perf_counter()
    scenario = workload.build(seed, scale, tr)
    with tr.span("engine.build"):
        engine = make_engine(workload, scenario)
        cluster_times = (_trace_cluster(engine, tr)
                         if traced and workload.agents else None)
        engine.build()
    setup_s = time.perf_counter() - t0
    rss_after_build = _status_mb("self", "VmRSS")
    agents = _agents() if workload.agents else []
    if traced and not workload.agents:
        _trace_serial(engine, tr)

    advance = engine.advance
    if traced:
        advance = tr.timed("engine.advance", advance)
    t1 = time.perf_counter()
    while advance():
        pass
    t2 = time.perf_counter()
    # Agents' own peaks, read while they still exist (outside the clock).
    agents_peak = sum(_status_mb(p.pid, "VmHWM") for p in agents)
    t3 = time.perf_counter()
    with tr.span("engine.finalize"):
        res = engine.finalize()
    run_s = (t2 - t1) + (time.perf_counter() - t3)
    if traced:
        tr.end()  # run
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "events": res.events.total,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0 + agents_peak),
        "digest": results_digest(res),
        "problems": _hygiene(agents, orphans_before) if agents else [],
    }
    if traced:
        out["layers"] = _ledger(engine, res, tr, run_s, rss_after_build,
                                cluster_times)
        out["layers_seen"] = tr.layers_seen()
    return out


# --- traced-run hooks --------------------------------------------------------

class _ClusterTimes:
    """Agent-side time from the transport's per-agent ``window_times``."""

    def __init__(self, transport) -> None:
        self.transport = transport
        self.busy = [0.0] * METRIC_AGENTS
        self.wait = 0.0
        self.ipc = 0.0

    def after_dispatch(self, dur: float) -> None:
        times = list(self.transport.window_times or ())
        slowest = max(times, default=0.0)
        for i, t in enumerate(times[:METRIC_AGENTS]):
            self.busy[i] += t
        self.wait += sum(slowest - t for t in times)
        self.ipc += max(0.0, dur - slowest)


def _trace_cluster(engine, tr) -> _ClusterTimes:
    transport = engine.transport
    transport.track_times = True
    times = _ClusterTimes(transport)
    tr.patch(transport, "launch", "cluster.launch")
    tr.patch(transport, "build_all", "cluster.build")
    tr.patch(transport, "peek_all", "cluster.agree")
    tr.patch(transport, "quiet_all", "cluster.quiet")
    tr.patch(transport, "run_window_all", "cluster.dispatch",
             times.after_dispatch)
    tr.patch(transport, "run_windows_all", "cluster.dispatch",
             times.after_dispatch)
    for attr in ("send_batch", "deliver_pending", "barrier"):
        tr.patch(transport, attr, "cluster.flush")
    tr.patch(transport, "finish_all", "cluster.finish")
    tr.patch(transport, "close", "cluster.close")
    return times


def _trace_serial(engine, tr) -> None:
    bus = engine.bus
    tr.systems_clock = lambda: {k: p.elapsed_s for k, p in bus.totals.items()}
    events_cls = type(engine.events)
    tr.patch(events_cls, "pop_window", "events.pop")
    tr.patch(events_cls, "pop_window_columns", "events.pop")
    memo = getattr(engine, "_memo", None)
    if memo is not None:
        tr.patch(memo, "run_window", "memo.run_window")


def _ledger(engine, res, tr, run_s: float, rss_after_build: float,
            cluster_times) -> dict:
    """Every per-layer metric of one traced run, by name."""
    bus = engine.bus
    counters = bus.counters
    ev = res.events
    adv = tr.durations("engine.advance")
    m = {
        "scenario.build_s": tr.total("scenario.build"),
        "scenario.topology_s": tr.total("scenario.topology"),
        "scenario.routing_s": tr.total("scenario.routing"),
        "scenario.synthesize_s": tr.total("scenario.synthesize"),
        "engine.build_s": tr.total("engine.build"),
        "engine.rss_after_build_mb": rss_after_build,
        "engine.advance_s": sum(adv),
        "engine.windows": len(adv),
        "engine.window_us_p50": ledger.quantile(adv, 0.50) * 1e6,
        "engine.window_us_p99": ledger.quantile(adv, 0.99) * 1e6,
        "engine.finalize_s": tr.total("engine.finalize"),
        "engine.residual_s": tr.advance_self_s,
        "engine.retained_window_records": (len(res.window_breakdown)
                                           + len(bus.windows)),
        "events.pop_s": tr.total("events.pop"),
        "events.pop_calls": tr.count("events.pop"),
        "events.send": ev.send,
        "events.forward": ev.forward,
        "events.transmit": ev.transmit,
        "events.ack": ev.ack,
        "memo.run_window_s": tr.total("memo.run_window"),
        "memo.hits": counters.get("memo.hit", 0),
        "memo.misses": counters.get("memo.miss", 0),
        "memo.ineligible": counters.get("memo.ineligible", 0),
        "memo.validate_fail": counters.get("memo.validate_fail", 0),
    }
    systems_s = 0.0
    for system in ("ack", "send", "forward", "transmit"):
        prof = bus.totals.get(system)
        m[f"systems.{system}_s"] = prof.elapsed_s if prof else 0.0
        systems_s += m[f"systems.{system}_s"]
    m["systems.ns_per_event"] = systems_s / ev.total * 1e9 if ev.total else 0.0
    tried = m["memo.hits"] + m["memo.misses"] + m["memo.ineligible"]
    m["memo.hit_rate"] = m["memo.hits"] / tried if tried else 0.0
    m["memo.us_per_hit"] = (tr.self_s.get("memo", 0.0) / m["memo.hits"] * 1e6
                            if m["memo.hits"] else 0.0)

    # Port state lives in the agents on a cluster run; only the results'
    # drop and mark totals reach the coordinator.
    stats = [p.stats for p in getattr(engine, "ports", ())]
    m["port.enqueued"] = sum(s.enqueued for s in stats)
    m["port.dropped"] = res.drops
    m["port.marked"] = res.marks
    m["port.max_queue_bytes"] = max((s.max_queue_bytes for s in stats),
                                    default=0)

    m["cluster.launch_s"] = tr.total("cluster.launch")
    m["cluster.agree_s"] = tr.total("cluster.agree")
    m["cluster.quiet_s"] = tr.total("cluster.quiet")
    m["cluster.dispatch_s"] = tr.total("cluster.dispatch")
    m["cluster.flush_s"] = tr.total("cluster.flush")
    m["cluster.finish_s"] = tr.total("cluster.finish")
    for a in range(METRIC_AGENTS):
        m[f"cluster.agent_busy_s.a{a}"] = (cluster_times.busy[a]
                                           if cluster_times else 0.0)
        m[f"cluster.agent_compute_s.a{a}"] = sum(
            p.elapsed_s for k, p in bus.totals.items()
            if k.startswith(f"a{a}:"))
    m["cluster.barrier_wait_s"] = cluster_times.wait if cluster_times else 0.0
    m["cluster.ipc_s"] = cluster_times.ipc if cluster_times else 0.0
    m["cluster.windows"] = counters.get("cluster.windows", 0)
    m["cluster.round_trips"] = tr.count("cluster.agree", "cluster.quiet",
                                        "cluster.dispatch")
    m["shm.frames"] = counters.get("transport.shm_frames", 0)
    m["shm.bytes"] = counters.get("transport.shm_bytes", 0)
    m["shm.fallbacks"] = counters.get("transport.shm_fallbacks", 0)

    for layer in ledger.LAYERS:
        m[f"{layer}.self_s"] = tr.self_s.get(layer, 0.0)
    total = tr.total("run")
    m["trace.unattributed_share"] = (tr.self_s.get(None, 0.0) / total
                                     if total else 0.0)
    m["trace.events_per_s"] = ev.total / run_s if run_s else 0.0
    return m


# --- modes ------------------------------------------------------------------

def run_plain(workload, seed: int, scale: str, budget_s: float) -> dict:
    """Repeat runs until ``budget_s`` has passed (at least one run)."""
    t0 = time.perf_counter()
    runs = []
    peak = None
    while not runs or time.perf_counter() - t0 < budget_s:
        run = one_run(workload, seed, scale)
        if peak is None:
            peak = run["peak_rss_mb"]
        del run["peak_rss_mb"]
        runs.append(run)
    return {"runs": runs, "peak_rss_mb": peak}


def run_traced(workload, seed: int, scale: str, run_id: str) -> dict:
    tr = ledger.Tracer(run_id)
    try:
        run = one_run(workload, seed, scale, tr)
    finally:
        tr.close()
    path = os.path.join(SPAN_DIR, f"{run_id}.jsonl")
    tr.write(path)
    run["spans_file"] = os.path.relpath(path, ROOT)
    return run


def run_reference(workload, seed: int, scale: str,
                  fresh: bool = False) -> dict:
    """OOD reference digest: pinned, else cached, else computed now
    (``fresh``: always computed now)."""
    ref = WORKLOADS[workload.reference]
    scenario = ref.build(seed, scale, ledger.NullTracer())
    fp = inputs_fingerprint(scenario)
    if not fresh and scale == "full" and os.path.exists(PINNED):
        with open(PINNED) as fh:
            pinned = json.load(fh).get(ref.name, {}).get(str(seed))
        if pinned and pinned["inputs"] == fp:
            return {"digest": pinned["digest"], "inputs": fp,
                    "source": "pinned"}
    cache = os.path.join(CACHE_DIR, f"{ref.name}-{scale}-{seed}-{fp[:16]}.json")
    if not fresh and os.path.exists(cache):
        with open(cache) as fh:
            return dict(json.load(fh), source="cached")
    from repro.des import run_baseline
    t0 = time.perf_counter()
    out = {"digest": results_digest(run_baseline(scenario)), "inputs": fp,
           "ood_s": time.perf_counter() - t0}
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = f"{cache}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(out, fh)
    os.replace(tmp, cache)
    return dict(out, source="ood")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("mode", choices=("plain", "traced", "reference"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    ap.add_argument("--budget", type=float, default=0.0,
                    help="plain: keep repeating runs for this many seconds")
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--fresh", action="store_true",
                    help="reference: ignore pinned and cached digests")
    args = ap.parse_args(argv)
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    workload = WORKLOADS[args.workload]
    if args.mode == "reference":
        out = run_reference(workload, args.seed, args.scale, args.fresh)
    elif args.mode == "traced":
        out = run_traced(workload, args.seed, args.scale, args.run_id)
    else:
        out = run_plain(workload, args.seed, args.scale, args.budget)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

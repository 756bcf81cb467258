#!/usr/bin/env python3
"""Repository benchmark: results-checked events/s, set-up time and peak memory.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fattree8-dctcp --seed 1 \\
        --seconds 20 --trace 0

Runs happen in fresh child processes (``perfbench/child.py``), each of
which repeats set-up, run and check for its share of ``--seconds``.
Every run's results digest is checked against the OOD simulator's
digest for the same inputs.  The last line of standard output is one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json`` (medians over the runs); with ``--trace 1`` they are
the per-layer ledger of the traced runs, plus the tracing overhead.
``attempted`` counts runs; ``failed`` counts runs whose digest differs
from the reference, that crashed or hung, or that left a cluster agent
or shared-memory segment behind (``mismatch_rate`` = failed/attempted).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
HISTORY = os.path.join(ROOT, ".perfbench", "history.jsonl")
#: Hard ceiling on one invocation; children are killed past it.
DEADLINE_S = 170.0
#: Plain child processes per measurement (each a fresh process, so
#: each gives one peak-memory sample); runs repeat inside each.
CHILDREN = 4
#: Traced child processes per traced measurement.
TRACED_CHILDREN = 2


class RunFailed(Exception):
    pass


def _env() -> dict:
    """The children's environment: every ``REPRO_*`` knob cleared."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args, timeout: float, groups: list) -> dict:
    """Run one child to completion; its last stdout line is its JSON.

    The child leads a new process group, which its cluster agents join;
    ``groups`` collects it for :func:`_wait_groups`.
    """
    proc = subprocess.Popen(
        [sys.executable, CHILD, *args], cwd=ROOT, env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    groups.append(proc.pid)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise RunFailed(f"timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        _kill_group(proc.pid)
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise RunFailed(f"exit {proc.returncode}: {tail}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunFailed("no output")
    return json.loads(lines[-1])


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _wait_groups(groups, grace_s: float = 10.0) -> int:
    """Wait until every child's process group has ended, killing what
    is left after ``grace_s``; returns how many groups had to be killed.
    (A child's helpers, such as multiprocessing's resource tracker, end
    on their own shortly after it.)"""
    deadline = time.monotonic() + grace_s
    alive = [g for g in groups if _group_alive(g)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [g for g in alive if _group_alive(g)]
    for pgid in alive:
        _kill_group(pgid)
    return len(alive)


def _platform() -> dict:
    import numpy
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return {"cpus": cpus, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_rev": rev}


def _check_program() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit("perfbench: the program (src/repro) is not in this "
                 "checkout; nothing to measure")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full") -> dict:
    """Run the benchmark; returns the result object (and prints progress)."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--scale", scale]

    groups = []
    ref = _child(["reference", *common], deadline - time.monotonic(), groups)
    print(f"reference: {ref['source']} digest {ref['digest'][:16]}",
          flush=True)

    runs, traced_runs, failures = [], [], []
    peaks = []
    attempted = 0

    def check(run_id: str, run: dict) -> None:
        problems = list(run["problems"])
        if run["digest"] != ref["digest"]:
            problems.append(f"digest {run['digest'][:16]} != reference")
        if problems:
            failures.append(f"{run_id}: {'; '.join(problems)}")

    # Plain children split the budget; many short-lived processes
    # average over both the machine's speed phases and each process's
    # memory layout.  In trace mode traced children (one run each)
    # interleave with plain ones, which only give the untraced base and
    # share half the budget.
    if trace:
        modes = ["traced", "plain"] * TRACED_CHILDREN + ["plain"]
        budget = seconds / 2 / modes.count("plain")
    else:
        modes = ["plain"] * CHILDREN
        budget = seconds / CHILDREN
    t_measure = time.monotonic()
    for i, mode in enumerate(modes):
        left = deadline - time.monotonic()
        if i and left < 2.0 * (time.monotonic() - t_measure) / i:
            break
        run_id = f"{workload}-s{seed}-c{i}-{mode}"
        args = [mode, *common, "--run-id", run_id]
        if mode == "plain":
            args += ["--budget", str(budget)]
        try:
            out = _child(args, left, groups)
        except RunFailed as exc:
            attempted += 1
            failures.append(f"{run_id}: {exc}")
            continue
        # A completed run is timed even if its check failed; the result
        # is then marked incorrect.
        if mode == "traced":
            attempted += 1
            check(run_id, out)
            traced_runs.append(out)
            continue
        peaks.append(out["peak_rss_mb"])
        for j, run in enumerate(out["runs"]):
            attempted += 1
            check(f"{run_id}-{j}", run)
            runs.append(run)
        eps = [r["events"] / r["run_s"] for r in out["runs"]]
        print(f"{run_id}: {len(eps)} runs, median "
              f"{statistics.median(eps):.0f} events/s, peak "
              f"{out['peak_rss_mb']:.1f} MiB", flush=True)
    leftover = _wait_groups(groups)
    if leftover:
        attempted += 1
        failures.append(f"{leftover} child process groups outlived "
                        "their run")
    for failure in failures:
        print(f"FAILED {failure}", flush=True)
    if not runs or (trace and not traced_runs):
        raise RunFailed("no run completed")

    e2e = {
        "events_per_s": statistics.median(r["events"] / r["run_s"]
                                          for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": statistics.median(peaks),
    }
    rate = len(failures) / attempted
    print(f"mismatch_rate: {len(failures)}/{attempted} runs ({rate:.3f}); "
          f"{len(runs)} timed runs", flush=True)
    if trace:
        metrics = _ledger(traced_runs, e2e["events_per_s"])
        metrics["mismatch_rate"] = rate
    else:
        metrics = e2e
    units = _units("per_layer" if trace else "end_to_end")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }


def _ledger(traced_runs, untraced_eps: float) -> dict:
    """Per-layer metrics: the median of each over the traced runs."""
    names = traced_runs[0]["layers"].keys()
    m = {k: statistics.median(r["layers"][k] for r in traced_runs)
         for k in names}
    traced_eps = m.pop("trace.events_per_s")
    m["trace.events_per_s_traced"] = traced_eps
    m["trace.events_per_s_untraced"] = untraced_eps
    m["trace.overhead"] = traced_eps / untraced_eps
    for r in traced_runs:
        print(f"spans: {r['spans_file']} (layers {', '.join(r['layers_seen'])})")
    return m


def _units(key: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def pin() -> None:
    """Recompute the pinned OOD reference digests of the default seed."""
    pinned, groups = {}, []
    for name in sorted({w.reference for w in WORKLOADS.values()}):
        out = _child(["reference", "--workload", name, "--seed",
                      str(DEFAULT_SEED), "--fresh"], DEADLINE_S, groups)
        pinned[name] = {str(DEFAULT_SEED): {"inputs": out["inputs"],
                                            "digest": out["digest"]}}
        print(f"{name}: {out['digest']} (OOD {out['ood_s']:.1f} s)")
    _wait_groups(groups)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pin", action="store_true",
                    help="recompute reference.json with the OOD simulator")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long copy of the workload "
                         "(self-tests)")
    args = ap.parse_args(argv)
    _check_program()
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    env = _platform()
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "scale": args.scale, **env}), flush=True)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.scale)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    os.makedirs(os.path.dirname(HISTORY), exist_ok=True)
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "scale": args.scale,
                             **env, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

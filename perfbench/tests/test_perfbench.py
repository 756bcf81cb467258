"""Self-tests of the benchmark, at tiny scale.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import child, ledger, run  # noqa: E402
from perfbench.digest import results_digest  # noqa: E402
from perfbench.workloads import WORKLOADS, make_engine  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--scale", "tiny", "--seconds", "0.5", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_every_metric_is_emitted(trace, key):
    result = _bench("--workload", "fattree8-dctcp", "--seed", "5",
                    "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _tiny_results(name="fattree8-dctcp", seed=2):
    workload = WORKLOADS[name]
    scenario = workload.build(seed, "tiny", ledger.NullTracer())
    engine = make_engine(workload, scenario)
    engine.build()
    while engine.advance():
        pass
    return scenario, engine.finalize()


def test_digest_matches_ood_reference():
    from repro.des import run_baseline
    scenario, res = _tiny_results()
    assert results_digest(res) == results_digest(run_baseline(scenario))


def _perturbations():
    def flow_complete(r):
        fr = r.flows[min(r.flows)]
        fr.complete_ps = (fr.complete_ps or 0) + 1

    def rtt(r):
        t, rtt_ps, fid = r.rtt_samples[0]
        r.rtt_samples[0] = (t, rtt_ps + 1, fid)

    def forward(r):
        r.events.forward += 1

    def node_events(r):
        node = min(r.node_events)
        r.node_events[node] += 1

    def marks(r):
        r.marks += 1

    def tx_bytes(r):
        r.tx_bytes -= 1

    return [flow_complete, rtt, forward, node_events, marks, tx_bytes]


@pytest.mark.parametrize("perturb", _perturbations(),
                         ids=lambda f: f.__name__)
def test_perturbed_results_are_a_mismatch(perturb):
    _scenario, res = _tiny_results()
    res.trace = None
    bad = copy.deepcopy(res)
    perturb(bad)
    assert results_digest(bad) != results_digest(res)


def test_mismatch_counts_as_failed(monkeypatch):
    real_child = run._child

    def fake_child(args, timeout, groups):
        if args[0] == "reference":
            return {"digest": "0" * 64, "source": "test"}
        return real_child(args, timeout, groups)

    monkeypatch.setattr(run, "_child", fake_child)
    monkeypatch.setattr(run, "CHILDREN", 1)
    result = run.measure("fattree8-dctcp", 2, 0.1, False, scale="tiny")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_covers_each_layer(name, tmp_path, monkeypatch):
    monkeypatch.setattr(child, "SPAN_DIR", str(tmp_path))
    workload = WORKLOADS[name]
    out = child.run_traced(workload, 3, "tiny", f"test-{name}")
    assert set(workload.layers) <= set(out["layers_seen"])
    assert not out["problems"]
    spans = [json.loads(line) for line in
             open(tmp_path / f"test-{name}.jsonl")]
    assert {s["run"] for s in spans} == {f"test-{name}"}
    ids = {s["id"] for s in spans}
    assert all(s["parent"] in ids or s["parent"] == 0 for s in spans)
    layers = out["layers"]
    assert layers["engine.windows"] > 0
    assert 0.0 <= layers["trace.unattributed_share"] < 0.5
    if workload.ffwd:
        assert layers["memo.hits"] > 0
    if workload.agents:
        assert layers["cluster.windows"] > 0
        assert layers["cluster.launch_s"] > 0


def test_self_time_excludes_children_and_systems():
    import time
    tr = ledger.Tracer("t")
    clock = {"forward": 0.0}
    tr.systems_clock = lambda: dict(clock)
    tr.begin("run")
    tr.begin("engine.advance")
    with tr.span("events.pop"):
        time.sleep(0.002)
    time.sleep(0.01)
    clock["forward"] += 0.004  # the bus saw 4 ms of forward inside
    tr.end()
    tr.end()
    total = tr.total("run")
    # Self times partition the root span exactly.
    assert sum(tr.self_s.values()) == pytest.approx(total, abs=1e-9)
    assert tr.self_s["systems"] == pytest.approx(0.004)
    assert tr.self_s["events"] >= 0.002
    assert tr.self_s["engine"] == pytest.approx(tr.advance_self_s)
    assert tr.advance_self_s >= 0.006 - 1e-3
    (fwd,) = [s for s in tr.spans if s[2] == "systems.forward"]
    (adv,) = [s for s in tr.spans if s[2] == "engine.advance"]
    assert fwd[1] == adv[0] and fwd[4] == pytest.approx(adv[4])
    assert tr.layers_seen() == ["engine", "events", "systems"]


def test_patch_is_undone_on_close():
    import types
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    tr = ledger.Tracer("t")
    assert tr.patch(mod, "f", "scenario.f")
    assert mod.f(1) == 2 and tr.count("scenario.f") == 1
    assert not tr.patch(mod, "missing", "scenario.g")
    tr.close()
    assert mod.f is original

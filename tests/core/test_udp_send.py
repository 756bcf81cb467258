"""The closed-form UDP send: one cut formula for every backend.

* property: :func:`udp_cut` / :func:`udp_emission_schedule` against a
  segment-by-segment scan of :meth:`UdpSchedule.enqueue_time`;
* end to end: a columnar scenario mixing DCTCP with multi-segment UDP
  flows that span many windows (the WAN twin has only single-segment
  flows) gives byte-identical results on numpy, python and OOD;
* the numpy send path builds no Flow facade, and fast-forwarding never
  flushes the resident working set inside ``advance()``.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import wan_twin_smoke
from repro.core.ecs.numpy_table import NumpyTable
from repro.core.engine import DodEngine
from repro.core.systems.send import UDP_WIRE, udp_cut, udp_emission_schedule
from repro.des import run_baseline
from repro.metrics import TraceLevel
from repro.protocols import UdpSchedule
from repro.protocols.packet import MSS
from repro.scenario import make_scenario
from repro.topology import fattree
from repro.traffic import FlowColumns, Transport
from repro.units import GBPS, us


def _scan(sched: UdpSchedule, seq: int, window_end: int):
    """Reference: walk the schedule one segment at a time."""
    total = sched.total_segs
    out = []
    while seq < total and sched.enqueue_time(seq) < window_end:
        out.append((sched.enqueue_time(seq), seq, sched.payload(seq)))
        seq += 1
    return out, seq, (sched.enqueue_time(seq) if seq < total else None)


def _check(sched: UdpSchedule, seq: int, window_end: int) -> None:
    assert udp_emission_schedule(sched, seq, window_end) == _scan(
        sched, seq, window_end)
    cut = udp_cut(sched.start_ps, sched.nic_rate_bps, window_end)
    assert sched.enqueue_time(cut) >= window_end
    assert cut == 0 or sched.enqueue_time(cut - 1) < window_end


#: Rates that divide ``UDP_WIRE`` (every evaluation rate) and ones that
#: leave a remainder.
_RATES = st.one_of(
    st.sampled_from([GBPS, 10 * GBPS, 40 * GBPS, 100 * GBPS]),
    st.integers(min_value=10**6, max_value=4 * 10**11),
)
_STARTS = st.one_of(
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=2**63 - 10**12, max_value=2**66),
)


@given(size=st.integers(min_value=1, max_value=64 * MSS), start=_STARTS,
       rate=_RATES, data=st.data())
@settings(deadline=None, max_examples=300)
def test_cut_matches_scan(size, start, rate, data):
    sched = UdpSchedule(0, size, start, rate)
    total = sched.total_segs
    seq = data.draw(st.integers(min_value=0, max_value=total), label="seq")
    at = data.draw(st.integers(min_value=0, max_value=total + 1),
                   label="segment")
    end = data.draw(st.one_of(
        # exactly at (or one ps around) a segment's enqueue time
        st.sampled_from([-1, 0, 1]).map(
            lambda d: sched.enqueue_time(at) + d),
        st.integers(min_value=start - 10**7,
                    max_value=sched.enqueue_time(total) + 10**7),
    ), label="window_end")
    _check(sched, seq, end)


@pytest.mark.parametrize("size,start,rate,seq,end", [
    # seq = 0, window closing exactly on segment 3's enqueue time
    (10 * MSS, 5_000, 10 * GBPS, 0, 5_000 + (3 * UDP_WIRE) // (10 * GBPS)),
    # mid-flow cursor, window reaching into the final partial segment
    (10 * MSS + 7, 0, 10 * GBPS, 4, 10**9),
    # a rate that does not divide UDP_WIRE (remainder r != 0)
    (50 * MSS, 123, 7 * GBPS, 17, 123 + (31 * UDP_WIRE) // (7 * GBPS)),
    # start beyond 2**63: no int64 bound applies
    (20 * MSS, 2**63 + 11, 3 * GBPS, 2, 2**63 + 11 + 10**7),
    # window ends before the flow starts
    (3 * MSS, 10**6, 10 * GBPS, 0, 10**6 - 1),
])
def test_cut_corner_cases(size, start, rate, seq, end):
    _check(UdpSchedule(0, size, start, rate), seq, end)


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
        (res.drops, res.marks, res.tx_bytes),
    ):
        h.update(repr(part).encode())
    return h.hexdigest()


def _mixed_scenario():
    """Columnar DCTCP + multi-segment UDP on 7 Gbps links, whose
    per-segment wire time is not a whole picosecond count."""
    topo = fattree(4, rate_bps=7 * GBPS, delay_ps=us(1))
    hosts = topo.hosts
    src = [hosts[i] for i in range(8)]
    dst = [hosts[15 - i] for i in range(8)]
    size = [60_000, 45 * MSS + 5, 30_000, 80 * MSS, 20_000, 2 * MSS + 1,
            50_000, 33 * MSS]
    start = [us(i * 3) for i in range(8)]
    udp, dctcp = int(Transport.UDP), int(Transport.DCTCP)
    transport = [dctcp, udp] * 4
    flows = FlowColumns(src, dst, size, start, transport, [0] * 8)
    return make_scenario(topo, flows, buffer_bytes=60_000)


def test_mixed_columnar_udp_identical_across_engines():
    sc = _mixed_scenario()
    for level in (TraceLevel.NONE, TraceLevel.FULL):
        ood = run_baseline(sc, level)
        want = _results_digest(ood)
        for backend in ("numpy", "python"):
            for k in (1, 8):
                engine = DodEngine(sc, level, backend=backend,
                                   batch_windows=k)
                res = engine.run()
                label = f"{backend} K={k} trace={int(level)}"
                assert _results_digest(res) == want, label
                if level:
                    assert res.trace.digest() == ood.trace.digest(), label
    # the UDP flows really span many windows
    assert ood.flows[3].complete_ps - ood.flows[3].start_ps > 50 * us(1)


def test_numpy_send_path_builds_no_flow_facade():
    sc = wan_twin_smoke(3_000, duration_us=100, seed=5)
    assert sc.flows.cached_flow_count() == 0
    res = DodEngine(sc, backend="numpy").run()
    assert res.events.send > 0
    assert sc.flows.cached_flow_count() == 0


def test_ffwd_never_flushes_resident_columns_in_advance(monkeypatch):
    """Memo probe, capture diff and apply all go through the resident
    views: no ``NumpyTable._sync`` call between checkpoints."""
    calls = []
    sync = NumpyTable._sync

    def counting(table):
        calls.append(table.kind)
        sync(table)

    monkeypatch.setattr(NumpyTable, "_sync", counting)
    sc = wan_twin_smoke(3_000, duration_us=100, seed=5)
    engine = DodEngine(sc, backend="numpy", ffwd=True)
    engine.build()
    calls.clear()
    while engine.advance():
        pass
    memo = engine.bus.counters
    assert memo.get("memo.miss", 0) + memo.get("memo.hit", 0) > 0
    assert calls == []

"""Shared-memory segment lifecycle: created once, unlinked exactly once.

The shm transport's failure modes are all lifecycle bugs: a segment
unlinked twice (resource_tracker KeyError noise), a segment never
unlinked (``/dev/shm`` fills until the machine wedges), or a dead
incarnation's rings surviving an agent restart.  This suite pins the
contract at three levels: the :class:`ShmRing`/blob primitives, the
transport's kill/restore segment turnover, and a full run in a fresh
interpreter whose stderr must stay free of tracker warnings.
"""

import os
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import repro
from repro.cluster import AgentSpec, ProcessTransport
from repro.cluster import shm as shm_mod
from repro.cluster.shm import (
    SEGMENT_PREFIX, ShmRing, list_orphans, read_blob, reap_orphans,
    write_blob,
)
from repro.des.partition_types import contiguous_partition
from repro.metrics import TraceLevel


def _live_segments():
    return set(list_orphans())


class TestRingLifecycle:
    def test_create_unlink_exactly_once(self):
        ring = ShmRing.create("life", slot_bytes=4096, n_slots=2)
        assert ring.name in _live_segments()
        reader = ShmRing.attach(ring.name)
        # An attacher never owns the segment: its unlink is a no-op.
        reader.unlink()
        assert ring.name in _live_segments()
        ring.unlink()
        assert ring.name not in _live_segments()
        assert ring.unlinked
        ring.unlink()  # idempotent: the second call must not raise
        reader.close()
        ring.close()
        ring.close()  # close is idempotent too

    def test_attach_sees_creator_geometry(self):
        ring = ShmRing.create("geom", slot_bytes=8192, n_slots=3)
        try:
            reader = ShmRing.attach(ring.name)
            assert reader.slot_bytes == 8192
            assert reader.n_slots == 3
            assert reader.frame_capacity == ring.frame_capacity
            reader.close()
        finally:
            ring.unlink()
            ring.close()

    def test_blob_round_trip_unlinks_on_read(self):
        parts = [b"header", bytes(range(200)), b"tail"]
        name, nbytes = write_blob("blob-test", parts)
        assert name in _live_segments()
        assert read_blob(name, nbytes) == b"".join(parts)
        # The reader unlinks the one-shot blob as it consumes it.
        assert name not in _live_segments()

    def test_reap_orphans_unlinks_stranded_segments(self):
        # Simulate a crashed worker: a prefixed segment nobody owns.
        seg = shared_memory.SharedMemory(
            name=f"{SEGMENT_PREFIX}stranded-test", create=True, size=128)
        shm_mod._disown_segment(seg)
        seg.close()
        assert f"{SEGMENT_PREFIX}stranded-test" in _live_segments()
        reaped = reap_orphans()
        assert f"{SEGMENT_PREFIX}stranded-test" in reaped
        assert f"{SEGMENT_PREFIX}stranded-test" not in _live_segments()
        assert reap_orphans() == []  # nothing left to reap


class TestTransportSegmentTurnover:
    def test_segments_survive_restart_with_fresh_names(
            self, fattree4_scenario):
        """kill() keeps the dead incarnation's rings (its peers may still
        hold them); restore() tears them down and respawns with a fresh
        inbox and a freshly minted ring mesh; close() leaves nothing
        behind."""
        part = contiguous_partition(fattree4_scenario.topology, 2)
        specs = [AgentSpec(a, fattree4_scenario, part, TraceLevel.FULL)
                 for a in range(2)]
        transport = ProcessTransport()
        try:
            transport.launch(specs)
            transport.build_all()

            def agent1_rings():
                rings = [transport._workers[1].inbox, transport.mesh[1],
                         transport.mesh[2]]  # inbox, 0 -> 1, 1 -> 0
                return {ring.name for ring in rings}

            old = agent1_rings()
            assert old <= _live_segments()
            payload = transport.snapshot_all(2)[1]

            transport.kill(1)
            assert old <= _live_segments(), \
                "kill must keep the stale-valid rings"

            transport.restore(1, payload, 2)
            fresh = agent1_rings()
            assert not (fresh & old), "restore must mint fresh segments"
            assert fresh <= _live_segments()
            assert not (old & _live_segments()), \
                "restore must unlink the dead incarnation's rings"
            # The restored worker answers over its new segments.
            assert transport.snapshot_all(2)[1] is not None
            replies = transport.run_windows_all(-1, max_windows=3)
            assert [r.rounds for r in replies] == [3, 3]
        finally:
            transport.close()
        assert _live_segments() == set()


def test_full_run_leaves_clean_interpreter_and_shm():
    """End-to-end shm cluster run in a fresh interpreter: exit 0, no
    resource_tracker warnings or leak notices on stderr (Python prints
    both at interpreter shutdown, which in-process tests cannot see),
    and no segments left in /dev/shm."""
    code = (
        "from repro.cluster import DonsManager\n"
        "from repro.des.partition_types import contiguous_partition\n"
        "from repro.metrics import TraceLevel\n"
        "from repro.partition import ClusterSpec\n"
        "from repro.scenario import make_scenario\n"
        "from repro.topology import dumbbell\n"
        "from repro.traffic import Flow, Transport\n"
        "from repro.units import GBPS\n"
        "topo = dumbbell(4, edge_rate_bps=10 * GBPS,\n"
        "                bottleneck_rate_bps=10 * GBPS)\n"
        "flows = [Flow(i, i, 4 + i, 60_000, 0, Transport.DCTCP)\n"
        "         for i in range(4)]\n"
        "sc = make_scenario(topo, flows)\n"
        "part = contiguous_partition(topo, 2)\n"
        "run = DonsManager(sc, ClusterSpec.homogeneous(2), TraceLevel.FULL,\n"
        "                  transport='shm').run(partition=part)\n"
        "print(len(run.results.trace.entries))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) > 0
    for symptom in ("resource_tracker", "leaked shared_memory",
                    "Traceback"):
        assert symptom not in proc.stderr, proc.stderr
    assert _live_segments() == set()

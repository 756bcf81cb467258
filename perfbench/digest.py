"""Results digest and input fingerprint.

``results_digest`` hashes the public :class:`~repro.metrics.SimResults`
fields a user reads after a run: per-flow start, completion and size,
the RTT samples, the four event counts, per-node event counts, drops,
ECN marks and transmitted bytes.  It never hashes the event trace, so it
checks the trace-off configuration the benchmark actually times.  The
reference digest always comes from the OOD simulator
(``repro.des.run_baseline``) on the same inputs.

``inputs_fingerprint`` hashes what the program is given — topology,
egress configuration, flows and the duration cut — so a pinned
reference digest is only used for exactly the inputs it was made from.
"""

from __future__ import annotations

import hashlib


def _feed(h, tag: str, rows) -> None:
    h.update(tag.encode())
    h.update(repr(rows).encode())


def results_digest(res) -> str:
    h = hashlib.sha256()
    flows = sorted(
        (fid, fr.start_ps, -1 if fr.complete_ps is None else fr.complete_ps,
         fr.size_bytes)
        for fid, fr in res.flows.items())
    _feed(h, "flows", flows)
    _feed(h, "rtt", sorted(res.rtt_samples))
    ev = res.events
    _feed(h, "events", (ev.send, ev.forward, ev.transmit, ev.ack))
    _feed(h, "nodes", sorted((n, c) for n, c in res.node_events.items() if c))
    _feed(h, "ports", (res.drops, res.marks, res.tx_bytes))
    return h.hexdigest()


def inputs_fingerprint(scenario) -> str:
    h = hashlib.sha256()
    topo = scenario.topology
    _feed(h, "ifaces", [(i.iface_id, i.node, i.peer_node, i.rate_bps,
                         i.delay_ps) for i in topo.interfaces])
    _feed(h, "egress", (scenario.switch_egress, scenario.host_egress,
                        scenario.dctcp, scenario.ecmp_mode,
                        scenario.duration_ps))
    for flow in scenario.flows:
        h.update(repr((flow.flow_id, flow.src, flow.dst, flow.size_bytes,
                       flow.start_ps, int(flow.transport),
                       flow.priority)).encode())
    return h.hexdigest()

"""Inter-agent communication channels with traffic accounting.

In the paper's deployment, Agents exchange RPCs over the cluster fabric
(40 Gbps in the evaluation).  Here a channel is the unit of *accounting*
— messages, packet records and bytes per direction, which feed tau_a of
Eq. (1) and the FINISH-barrier accounting of §4.2 — while the physical
move of a batch belongs to the :mod:`~repro.cluster.transport` layer
(in-process mailbox or a shared-memory ring).

Channels are created lazily by :class:`ChannelMap` on the first send of
each directed pair, so a large-N plan whose cut touches only a few
machine pairs never pays the O(N^2) setup the old controller did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ClusterError
from ..protocols.packet import Row

#: Modeled wire size of one packet record inside a batch RPC.
RPC_RECORD_BYTES = 64
#: Modeled framing overhead of one batch RPC.
RPC_FRAME_BYTES = 256


@dataclass
class RpcChannel:
    """Directed channel between two agents."""

    src: int
    dst: int
    messages: int = 0
    records: int = 0
    bytes_sent: int = 0
    #: in-flight batch: (arrival_time_ps, node, row) records
    pending: List[Tuple[int, int, Row]] = field(default_factory=list)

    def send_batch(self, records: List[Tuple[int, int, Row]]) -> None:
        """One RPC carrying a window's worth of packets (§4.2: "it sends
        one RPC to carry the information of a batch of packets")."""
        if not records:
            return
        self.pending.extend(records)
        self.messages += 1
        self.records += len(records)
        self.bytes_sent += RPC_FRAME_BYTES + RPC_RECORD_BYTES * len(records)

    def drain(self) -> List[Tuple[int, int, Row]]:
        out = self.pending
        self.pending = []
        return out


class ChannelMap:
    """Directed channels keyed by ``(src, dst)``, created on first use.

    Only pairs that actually exchange a batch ever get an
    :class:`RpcChannel`; iteration covers the channels that exist, which
    is exactly what the FINISH-barrier drain and the final traffic
    accounting need.
    """

    def __init__(self) -> None:
        self._channels: Dict[Tuple[int, int], RpcChannel] = {}

    def __getitem__(self, key: Tuple[int, int]) -> RpcChannel:
        channel = self._channels.get(key)
        if channel is None:
            src, dst = key
            if src == dst:
                raise ClusterError(f"agent {src} cannot open a self-channel")
            channel = self._channels[key] = RpcChannel(src, dst)
        return channel

    def get(self, key: Tuple[int, int]) -> Optional[RpcChannel]:
        """The channel if it was ever used, else ``None`` (no creation)."""
        return self._channels.get(key)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._channels

    def __len__(self) -> int:
        return len(self._channels)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._channels)

    def items(self):
        return self._channels.items()

    def values(self):
        return self._channels.values()

    def sorted_items(self) -> List[Tuple[Tuple[int, int], RpcChannel]]:
        """Channels in ``(src, dst)`` order — the deterministic drain
        order of the window barrier."""
        return sorted(self._channels.items())


@dataclass
class ClusterTrafficStats:
    """Aggregated communication measurements of a distributed run."""

    windows: int = 0
    finish_signals: int = 0
    rpc_messages: int = 0
    rpc_records: int = 0
    rpc_bytes: int = 0
    #: bytes leaving each machine (tau_a of Eq. 1)
    egress_bytes: List[int] = field(default_factory=list)

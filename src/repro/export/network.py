"""A bandwidth/latency network model.

The evaluation machines in Section 6.3 use dual-port Mellanox ConnectX-3
10 GbE NICs; :data:`NetworkProfile.TEN_GBE` models that link.  Wire time is
``bytes / bandwidth + messages * latency`` — enough to reproduce who wins
and by what factor, which is what Figure 15 is about.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SerializationError


@dataclass(frozen=True)
class NetworkProfile:
    """Link characteristics used by the simulator."""

    name: str
    bandwidth_bytes_per_sec: float
    latency_sec_per_message: float

    #: 10 GbE over TCP: ~1.25 GB/s, tens of microseconds per message.
    TEN_GBE: "NetworkProfile" = None  # type: ignore[assignment]
    #: RDMA over the same NIC: kernel bypass removes most per-message cost.
    RDMA_10_GBE: "NetworkProfile" = None  # type: ignore[assignment]
    #: Loopback (the Figure 1 setting: client on the same machine).
    LOOPBACK: "NetworkProfile" = None  # type: ignore[assignment]


NetworkProfile.TEN_GBE = NetworkProfile("10gbe-tcp", 1.25e9, 40e-6)
NetworkProfile.RDMA_10_GBE = NetworkProfile("10gbe-rdma", 1.25e9, 2e-6)
NetworkProfile.LOOPBACK = NetworkProfile("loopback", 6.0e9, 5e-6)


class SimulatedNetwork:
    """Accumulates modeled transmission time over a profile."""

    def __init__(self, profile: NetworkProfile = NetworkProfile.TEN_GBE) -> None:
        self.profile = profile
        self.bytes_sent = 0
        self.messages_sent = 0
        self.wire_seconds = 0.0

    def transmit(self, nbytes: int, messages: int = 1) -> float:
        """Model sending ``nbytes`` across ``messages`` messages; returns
        the seconds this transfer takes on the wire."""
        if nbytes < 0 or messages < 0:
            raise SerializationError("negative transfer size")
        seconds = (
            nbytes / self.profile.bandwidth_bytes_per_sec
            + messages * self.profile.latency_sec_per_message
        )
        self.bytes_sent += nbytes
        self.messages_sent += messages
        self.wire_seconds += seconds
        return seconds


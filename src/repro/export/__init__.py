"""Data export to external tools (Sections 5 and 6.3).

Five export mechanisms over one simulated network:

- :mod:`repro.export.postgres_wire` — the row-based PostgreSQL protocol,
- :mod:`repro.export.vectorized` — the columnar wire protocol of Raasveldt
  & Mühleisen [46],
- :mod:`repro.export.arrow_wire` — Arrow as a wire format over a row
  store: every tuple read and appended to Arrow builders,
- :mod:`repro.export.flight` — Arrow Flight RPC: frozen blocks ship as raw
  Arrow buffers with no per-value serialization; hot blocks are first
  materialized through a transactional snapshot,
- :mod:`repro.export.rdma` — client-side RDMA: no server CPU serialization
  at all, bounded by NIC bandwidth.

CPU costs (serialization, parsing) are *measured* on the real serializers;
wire time is *modeled* by :class:`~repro.export.network.SimulatedNetwork`.
"""

from repro.export.network import NetworkProfile, SimulatedNetwork
from repro.export.exporter import ExportResult, TableExporter

__all__ = ["ExportResult", "NetworkProfile", "SimulatedNetwork", "TableExporter"]

"""Communication-network substrate: graphs, accounting, faithful simulation,
and the heterogeneous simulated-time layer (:mod:`repro.network.hetnet`)."""

from repro.network.commgraph import CommGraph
from repro.network.hetnet import HetNetModel, HetNetSpec
from repro.network.ledger import BandwidthLedger, LedgerWindow, ModelViolation
from repro.network.machine_sim import MachineSimulator, Message

__all__ = [
    "CommGraph",
    "BandwidthLedger",
    "HetNetModel",
    "HetNetSpec",
    "LedgerWindow",
    "ModelViolation",
    "MachineSimulator",
    "Message",
]

"""A Tempest-interface multiprocessor simulator.

The paper runs its protocols on Blizzard-E (a CM-5 implementation of the
Tempest interface) and, for the analysis in Section 6, on "a detailed
architectural simulator of a multiprocessor that implements the Tempest
interface".  This package is that class of substrate: fine-grain access
control, user-level message passing, and per-block protocol dispatch,
with an explicit cycle cost model.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.tempest.machine": ("Machine", "MachineConfig", "SimResult"),
    "repro.tempest.network": ("Network", "NetworkConfig"),
    "repro.runtime.context": ("AccessTag",),
    "repro.tempest.memory": ("BlockStore",),
    "repro.tempest.stats": ("MachineStats", "NodeStats"),
})

__all__ = [
    "Machine",
    "MachineConfig",
    "SimResult",
    "Network",
    "NetworkConfig",
    "AccessTag",
    "BlockStore",
    "MachineStats",
    "NodeStats",
]

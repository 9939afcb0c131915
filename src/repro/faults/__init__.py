"""Seeded, deterministic fault injection for the simulated machine.

The injector sits between the network fabric's timing model and packet
delivery, perturbing protocol traffic (drop, duplicate, bounded delay,
payload corruption) from named :class:`~repro.sim.rng.DeterministicRng`
substreams, so any chaos campaign replays bit-identically from its seed.
The LimitLESS trap handler asks the same injector for stall cycles, and a
liveness watchdog turns silent wedges into structured diagnoses.
"""

from .injector import FaultInjector, packet_crc
from .watchdog import LivenessWatchdog

__all__ = ["FaultInjector", "LivenessWatchdog", "packet_crc"]

"""Event-driven simulation kernel (the reproduction's ASIM core)."""

from .component import Component
from .kernel import SimulationError, Simulator, StallableResource
from .rng import DeterministicRng

__all__ = [
    "Component",
    "DeterministicRng",
    "SimulationError",
    "Simulator",
    "StallableResource",
]

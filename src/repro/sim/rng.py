"""Deterministic random number generation for the simulator.

Every stochastic choice (think-time jitter, retry backoff jitter, workload
data placement) draws from a stream seeded from a single experiment seed, so
a configuration reproduces the same execution cycle-for-cycle.
"""

from __future__ import annotations

import random


class DeterministicRng:
    """A seeded RNG with named substreams.

    Substreams decouple consumers: adding a draw in the network model does
    not perturb the workload generator's stream.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the substream called ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(f"{self.seed}:{name}")
        return self._streams[name]

    def randint(self, name: str, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] from substream ``name``."""
        return self.stream(name).randint(lo, hi)

    def choice(self, name: str, seq):
        """Uniform choice from ``seq`` using substream ``name``."""
        return self.stream(name).choice(seq)

    def shuffled(self, name: str, seq) -> list:
        """A shuffled copy of ``seq`` using substream ``name``."""
        out = list(seq)
        self.stream(name).shuffle(out)
        return out

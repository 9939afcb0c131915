"""Migratory-object workload.

A data structure that "migrates from processor to processor" (§6 discusses
FIFO eviction for exactly this pattern): a token and its payload travel
round-robin through every processor.  Each hop exercises the
READ_WRITE -> READ/WRITE_TRANSACTION paths (transitions 4, 5, 8 and 10)
rather than wide sharing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..proc import ops
from .base import Program, Workload


@dataclass
class MigratoryWorkload(Workload):
    """A token ring over shared memory."""

    rounds: int = 3
    payload_words: int = 4
    think_per_hop: int = 30
    name: str = "migratory"

    def describe(self) -> str:
        return f"migratory(rounds={self.rounds})"

    def build(self, machine) -> dict[int, list[Program]]:
        n = machine.config.n_procs
        alloc = machine.allocator
        poll = machine.config.spin_poll_interval
        token = alloc.alloc_scalar("mig.token", home=0)
        payload = alloc.alloc_words(
            "mig.payload", max(1, self.payload_words), home=0
        )
        total_hops = self.rounds * n
        backoff = ops.burst(ops.think(poll), ops.switch_hint())

        def program(p: int) -> Program:
            for my_turn in range(p, total_hops, n):
                # Wait until the token counter reaches this processor's turn.
                yield ops.spin_until(token.base, ops.GE, my_turn, backoff)
                # Own the payload: read-modify-write every word.
                for w in range(min(self.payload_words, 4)):
                    old = yield ops.load(payload.word(w))
                    yield ops.store(payload.word(w), old + 1)
                yield ops.think(self.think_per_hop)
                # Pass the token on (release: payload stores drain first).
                yield ops.fence()
                yield ops.store(token.base, my_turn + 1)

        return {p: [program(p)] for p in range(n)}

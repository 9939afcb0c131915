"""Producer/consumer workload.

One producer fills a buffer of blocks and posts an epoch flag; all
consumers spin on the flag, then read the whole buffer.  The buffer blocks
have a worker-set equal to the consumer count, but unlike the hot-spot
variable they are *rewritten* every epoch — so every protocol pays the
invalidation fan-out and the benefit of extra pointers is bounded.  Used
by tests and ablations to separate "widely read, never written" from
"widely read, frequently written" behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..proc import ops
from .base import Program, Workload


@dataclass
class ProducerConsumerWorkload(Workload):
    """Single producer, many consumers, epoch-flagged buffer handoff."""

    epochs: int = 3
    buffer_words: int = 8
    think_per_epoch: int = 50
    name: str = "producer_consumer"

    def describe(self) -> str:
        return f"producer_consumer(epochs={self.epochs})"

    def build(self, machine) -> dict[int, list[Program]]:
        n = machine.config.n_procs
        alloc = machine.allocator
        poll = machine.config.spin_poll_interval
        flag = alloc.alloc_scalar("pc.flag", home=0)
        done_ctr = alloc.alloc_scalar("pc.done", home=n - 1)
        buffer = alloc.alloc_words("pc.buffer", max(4, self.buffer_words), home=0)
        consumers = max(1, n - 1)
        backoff = ops.burst(ops.think(poll), ops.switch_hint())

        def producer() -> Program:
            for epoch in range(1, self.epochs + 1):
                for w in range(min(self.buffer_words, 8)):
                    yield ops.store(buffer.word(w), epoch * 100 + w)
                # Release: the buffer must be globally visible before the
                # flag is (a no-op under sequential consistency).
                yield ops.fence()
                yield ops.store(flag.base, epoch)
                yield ops.think(self.think_per_epoch)
                # Wait for every consumer to finish this epoch.
                yield ops.spin_until(
                    done_ctr.base, ops.GE, epoch * consumers, backoff
                )

        def consumer(p: int) -> Program:
            for epoch in range(1, self.epochs + 1):
                yield ops.spin_until(flag.base, ops.GE, epoch, backoff)
                total = 0
                for w in range(min(self.buffer_words, 8)):
                    total += yield ops.load(buffer.word(w))
                if total <= 0:
                    raise AssertionError(f"consumer {p} read an empty buffer")
                yield ops.think(self.think_per_epoch)
                yield ops.fetch_add(done_ctr.base, 1)

        if n == 1:
            # Degenerate single-node machine: run the phases sequentially
            # (two spinning contexts on one processor would starve each
            # other, since SPARCLE only switches on remote misses).
            def solo() -> Program:
                for epoch in range(1, self.epochs + 1):
                    for w in range(min(self.buffer_words, 8)):
                        yield ops.store(buffer.word(w), epoch * 100 + w)
                    yield ops.fence()
                    yield ops.store(flag.base, epoch)
                    total = 0
                    for w in range(min(self.buffer_words, 8)):
                        total += yield ops.load(buffer.word(w))
                    if total <= 0:
                        raise AssertionError("solo consumer read an empty buffer")
                    yield ops.think(self.think_per_epoch)

            return {0: [solo()]}

        programs: dict[int, list[Program]] = {0: [producer()]}
        for p in range(1, n):
            programs[p] = [consumer(p)]
        return programs

"""Spin locks over shared memory (test-and-test-and-set)."""

from __future__ import annotations

from typing import Generator

from ..proc import ops


def spin_lock_acquire(
    lock_addr: int, *, poll_interval: int = 12
) -> Generator[tuple, int, None]:
    """Test-and-test-and-set acquire (use via ``yield from``).

    Spins read-only on a cached copy until the lock looks free, then tries
    the atomic test-and-set; on failure, backs off and goes back to
    spinning.  The read-only spin phase keeps the lock's worker-set
    visible to the directory, which is what makes contended locks
    interesting for coherence protocols.
    """
    backoff = ops.burst(ops.think(poll_interval), ops.switch_hint())
    while True:
        yield ops.spin_until(lock_addr, ops.EQ, 0, backoff)
        old = yield ops.test_and_set(lock_addr)
        if old == 0:
            return
        yield backoff


def spin_lock_release(lock_addr: int) -> Generator[tuple, int, None]:
    """Release a lock acquired with :func:`spin_lock_acquire`.

    The fence gives the release store its required semantics under the
    weakly-ordered model: every store made inside the critical section
    completes before the lock is seen free.
    """
    yield ops.fence()
    yield ops.store(lock_addr, 0)

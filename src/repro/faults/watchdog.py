"""Liveness watchdog: catch quiescence stalls *during* a run.

Without it, a wedged machine (a dropped packet whose retry path failed, a
lost invalidation acknowledgment) silently burns cycles until
``max_cycles``.  The watchdog samples a forward-progress signature — the
total instructions retired across every hardware context plus the count of
finished processors — every ``interval`` cycles.  Retry traffic, timer
ticks, and spinning synchronization do not advance the signature, so a
machine that is merely *busy* but not *progressing* is flagged after
``patience`` unchanged samples, and the failure surfaces as a
:class:`~repro.verify.diagnose.LivenessError` carrying the full structured
diagnosis instead of a timeout.
"""

from __future__ import annotations

from ..verify.diagnose import LivenessError, diagnose


class LivenessWatchdog:
    """Periodic forward-progress checker for one machine."""

    def __init__(self, machine, interval: int, patience: int = 3) -> None:
        self.machine = machine
        self.interval = interval
        self.patience = patience
        self.stalled_samples = 0
        self.checks = 0
        self._last_signature: tuple[int, int] | None = None
        # No cached bound method (a tick every ``interval`` cycles does
        # not need one): the pending event is the only thing holding the
        # watchdog, so a dismantled machine drops it with its queue.
        machine.sim.post_after(interval, self._tick, None)

    def _signature(self) -> tuple[int, int]:
        retired = 0
        finished = 0
        for node in self.machine.nodes:
            proc = node.processor
            if proc.done:
                finished += 1
            for ctx in proc.contexts:
                retired += ctx.ops_executed
        return (finished, retired)

    def _tick(self, _arg) -> None:
        machine = self.machine
        signature = self._signature()
        self.checks += 1
        if signature[0] == len(machine.nodes):
            return  # everyone finished; let the simulation drain
        if signature == self._last_signature:
            self.stalled_samples += 1
            if self.stalled_samples >= self.patience:
                raise LivenessError(
                    f"no forward progress for {self.stalled_samples} "
                    f"consecutive {self.interval}-cycle watchdog intervals",
                    diagnose(machine),
                )
        else:
            self.stalled_samples = 0
            self._last_signature = signature
        machine.sim.post_after(self.interval, self._tick, None)

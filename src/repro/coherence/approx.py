"""The paper's ASIM evaluation approximation of LimitLESS (§5.1).

For the published measurements the authors did *not* run the full
software-extended protocol: ASIM "simulates an ordinary full-map protocol,
but when the simulator encounters a pointer array overflow, it stalls both
the memory controller and the processor that would handle the LimitLESS
interrupt for Ts cycles."

We reproduce that technique exactly so it can be compared, as an ablation,
against our message-accurate LimitLESS implementation
(:mod:`repro.coherence.limitless`): the two agreeing is evidence that the
paper's approximation was sound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.packet import Op, Packet
from .controller import MemoryController
from .entry import DirectoryEntry
from .fullmap import FullMapController
from .limitless import TrapEngine
from .states import DirState


@dataclass
class _EmulatedEntry:
    """Hardware pointer-array occupancy emulated alongside full-map state."""

    hw_count: int = 0
    trap_on_write: bool = False


class ApproxLimitLessController(FullMapController):
    """Full-map directory + Ts-cycle stalls on emulated pointer overflow."""

    protocol_name = "limitless_approx"

    def __init__(
        self,
        *args,
        hw_pointers: int = 4,
        ts: int = 50,
        trap_engine: TrapEngine | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if hw_pointers < 0:
            raise ValueError("hw_pointers must be >= 0")
        self.hw_pointers = hw_pointers
        self.ts = ts
        self.trap_engine = trap_engine
        self._emulated: dict[int, _EmulatedEntry] = {}

    def _emu(self, block: int) -> _EmulatedEntry:
        found = self._emulated.get(block)
        if found is None:
            found = _EmulatedEntry()
            self._emulated[block] = found
        return found

    # ------------------------------------------------------------------

    def dispatch(self, entry: DirectoryEntry, packet: Packet) -> None:
        stall = self._account(entry, packet)
        if stall:
            # Stall the memory controller and the local processor for Ts,
            # then service the packet with ordinary full-map logic.  The
            # packet stays live across the stall, so keep it out of the
            # pool until the deferred dispatch consumes it.
            self.counters.bump("limitless.traps")
            self.occupancy.stall(self.ts)
            if self.trap_engine is not None:
                self.trap_engine.request_trap(self.ts, lambda: None)
            self._retained = True
            self.sim.post_after(
                self.ts, lambda: self._resume_dispatch(entry, packet)
            )
            return
        super().dispatch(entry, packet)

    def _resume_dispatch(self, entry: DirectoryEntry, packet: Packet) -> None:
        """Service a stalled packet with ordinary full-map logic."""
        self._retained = False
        MemoryController.dispatch(self, entry, packet)
        if not self._retained:
            self.pool.release(packet)

    def _account(self, entry: DirectoryEntry, packet: Packet) -> bool:
        """Update the emulated pointer array; True => take an overflow stall."""
        if entry.meta:  # any mode but NORMAL
            return False
        emu = self._emu(entry.block)
        src = packet.src
        op = packet.opcode
        if entry.state in (DirState.READ_TRANSACTION, DirState.WRITE_TRANSACTION):
            return False  # request will get BUSY; no pointer activity
        if op is Op.RREQ and entry.state is DirState.READ_ONLY:
            if src == entry.home or entry.holds(src):
                return False
            if emu.hw_count >= self.hw_pointers:
                # Overflow: trap empties all pointers into the software
                # vector; the requester is recorded in software (§4.4).
                emu.hw_count = 0
                emu.trap_on_write = True
                self.counters.bump("limitless.read_overflow_traps")
                return True
            emu.hw_count += 1
            return False
        if op is Op.RREQ and entry.state is DirState.READ_WRITE:
            emu.hw_count = 0 if src == entry.home else 1
            return False
        if op is Op.WREQ:
            trapped = emu.trap_on_write
            emu.trap_on_write = False
            emu.hw_count = 0 if src == entry.home else 1
            if trapped:
                self.counters.bump("limitless.write_termination_traps")
            return trapped
        if op is Op.REPM and entry.state is DirState.READ_WRITE:
            emu.hw_count = 0
            return False
        return False

"""Cache-side coherence controller.

Services processor loads, stores, and atomic read-modify-writes against the
cache array; on a miss (or a write to a read-only copy) it opens a
transaction with the block's home directory (RREQ/WREQ), retries on BUSY
with exponential backoff, answers invalidations (UPDATE with data when the
copy is dirty-exclusive, ACKC otherwise — including for blocks it silently
replaced), and writes back replaced read-write lines with REPM.

Fault tolerance (``fault_tolerant=True``) adds the recovery half of the
protocol, designed around the fabric's per-(src, dst) FIFO guarantee:

* outstanding requests carry an *epoch* and a timeout; an un-answered
  RREQ/WREQ is retransmitted with seeded exponential backoff, and any
  reply/BUSY bumps the epoch so stale timers die silently;
* duplicate or superseded data replies (a retransmission raced the
  original, or a read fill arrived for what is now an upgrade miss) are
  discarded instead of being fatal — FIFO guarantees the genuine reply is
  ordered behind them on the home→cache channel;
* dirty data leaving the cache (REPM on eviction, UPDATE answering an
  invalidation) is held in a write-back buffer until the home directory
  acknowledges it with DACK; the buffered copy is retransmitted on
  timeout, re-answers any INV that arrives meanwhile (echoing the new
  transaction id), and blocks re-requesting the same block — a refill
  granted from not-yet-written-back memory would resurrect stale data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..mem.address import AddressSpace
from ..network.interface import NetworkInterface
from ..network.packet import DISABLED_POOL, N_OPS, Op, Packet, PacketPool
from ..sim.component import Component
from ..sim.kernel import Simulator
from ..stats.counters import Counters, Histogram, counter_slot
from .cache import CacheArray, CacheLine
from .states import CacheState

Callback = Callable[[Optional[int]], None]

#: access kinds the processor can issue
KINDS = ("load", "store", "rmw")

#: counter names per access kind, prebuilt so the per-access hot path does
#: not format a string for every hit and miss
_HIT_SLOT = {kind: counter_slot(f"cache.hits.{kind}") for kind in KINDS}
_MISS_SLOT = {kind: counter_slot(f"cache.misses.{kind}") for kind in KINDS}
_LOCAL_REQ_SLOT = counter_slot("cache.local_requests")
_REMOTE_REQ_SLOT = counter_slot("cache.remote_requests")
# The rest of the miss transaction's counters, one list cell each: the
# compiled miss path (repro.backend.native) bumps the same cells by index.
_UPGRADES_SLOT = counter_slot("cache.upgrades")
_FILLS_SLOT = counter_slot("cache.fills")
_INV_RECEIVED_SLOT = counter_slot("cache.inv_received")
_EVICT_RO_SLOT = counter_slot("cache.evict_ro")
_EVICT_RW_SLOT = counter_slot("cache.evict_rw")
_BUSY_RETRIES_SLOT = counter_slot("cache.busy_retries")


@dataclass(slots=True)
class _Waiter:
    """One access parked on an MSHR.

    Slotted (as :class:`Mshr` is) so the compiled miss path can build and
    read both by slot offset, the way it does ``Context``.
    """

    kind: str
    addr: int
    payload: object  # store value or rmw function
    callback: Callback
    issued_at: int


@dataclass(slots=True)
class Mshr:
    """An open miss transaction for one block."""

    block: int
    need_write: bool
    opened_at: int
    waiters: list[_Waiter] = field(default_factory=list)
    retries: int = 0
    #: bumped on every (re)send and every reply; a pending timeout timer
    #: whose epoch no longer matches is stale and does nothing
    epoch: int = 0
    #: request timeouts taken so far (drives retransmission backoff)
    timeouts: int = 0
    #: True while the request is held because the block's dirty data sits
    #: un-acknowledged in the write-back buffer (see _WbEntry)
    wb_blocked: bool = False


@dataclass
class _WbEntry:
    """Dirty data in flight to home, held until the directory's DACK.

    Created when a READ_WRITE copy leaves the cache (REPM eviction or
    UPDATE invalidation answer) under ``fault_tolerant``; the buffered
    words are immutable for the entry's lifetime, so any DACK for the
    block acknowledges exactly this datum.
    """

    data: object  # BlockData
    opcode: Op  # Op.REPM | Op.UPDATE
    txn: Optional[int]
    epoch: int = 0
    retries: int = 0


class CacheController(Component):
    """One node's cache plus its protocol engine."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        space: AddressSpace,
        array: CacheArray,
        nic: NetworkInterface,
        *,
        hit_latency: int = 1,
        retry_base: int = 12,
        retry_cap: int = 400,
        rng=None,
        counters: Counters | None = None,
        fault_tolerant: bool = False,
        request_timeout: int = 0,
        pool: PacketPool | None = None,
    ) -> None:
        super().__init__(sim, f"cache{node_id}")
        self.node_id = node_id
        self.space = space
        self.array = array
        self.nic = nic
        self.hit_latency = hit_latency
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self._rng = rng
        self.counters = counters if counters is not None else Counters()
        # Direct view of the counter bag: a dict item-add beats a method
        # call on the per-access hot path.
        self._slots = self.counters.slot_view()
        self._mshrs: dict[int, Mshr] = {}
        #: survive dropped/duplicated/delayed packets (see module docstring)
        self.fault_tolerant = fault_tolerant
        #: cycles before an outstanding request or write-back is resent;
        #: 0 disables timers (the model checker drives retransmission as
        #: explicit transitions instead)
        self.request_timeout = request_timeout
        self._wb_buffer: dict[int, _WbEntry] = {}
        self.miss_latency_total = 0
        self.miss_latency_count = 0
        #: miss latencies binned to 8-cycle buckets (distribution reporting)
        self.latency_hist = Histogram()
        #: blocks using update-mode coherence (§6 extension): stores apply
        #: to the local read-only copy and write through to the home, which
        #: pushes the new data to the other sharers
        self.update_blocks: set[int] = set()
        #: allocates outgoing protocol packets (disabled pool = plain news)
        self.pool = pool if pool is not None else DISABLED_POOL
        #: per-opcode receive dispatch, indexed by interned Op value; the
        #: cache only ever sees memory→cache opcodes, so the cache→memory
        #: rows hold the loud-failure handler.
        rx: list[Callable[[Packet], None]] = [self._rx_unexpected] * N_OPS
        rx[Op.RDATA] = self._rdata
        rx[Op.WDATA] = self._wdata
        rx[Op.INV] = self._invalidate
        rx[Op.BUSY] = self._busy
        rx[Op.UPDATE_DATA] = self._absorb_update
        rx[Op.DACK] = self._dack
        self._rx = rx
        nic.set_cache_handler(self.receive)

    # ------------------------------------------------------------------
    # Processor interface
    # ------------------------------------------------------------------

    def access(self, kind: str, addr: int, payload, callback: Callback) -> None:
        """Issue one memory operation; ``callback(value)`` fires when done.

        * ``load``: payload ignored; callback receives the word value.
        * ``store``: payload is the value to write; callback receives None.
        * ``rmw``: payload maps old word -> new word; callback receives the
          old value (an atomic fetch-and-op on an exclusive copy).
        """
        if kind not in KINDS:
            raise ValueError(f"unknown access kind {kind!r}")
        block = self.space.block_of(addr)
        line = self.array.lookup(block)
        self._access(kind, addr, payload, callback, block, line)

    def hit(self, kind: str, line, addr: int, payload, callback: Callback) -> None:
        """Complete an access the caller already tag-checked as a hit.

        The processor's issue path performs the lookup for its stall
        accounting and calls this directly, skipping the miss/update-mode
        triage of :meth:`_access`.  Safe because update-mode blocks never
        become exclusive, so an update-mode store can never tag-check as
        a hit and always takes the full path.
        """
        self._slots[_HIT_SLOT[kind]] += 1
        # _apply, inlined: this is the per-access steady state for every
        # workload with cache locality.
        word = self.space.word_in_block(addr)
        words = line.data.words
        if kind == "load":
            result = words[word]
        elif kind == "store":
            words[word] = payload
            line.written = True
            result = None
        else:
            result = words[word]
            words[word] = payload(result)
            line.written = True
        sim = self.sim
        sim.post(sim.now + self.hit_latency, callback, result)

    def _access(
        self, kind: str, addr: int, payload, callback: Callback, block: int, line
    ) -> None:
        """``access`` with the block/line tag check already performed.

        The processor's issue path does the same lookup to decide its stall
        accounting and calls this directly so each access costs one tag
        check; the state cannot change in between (same event, synchronous).
        """
        if block in self.update_blocks and kind == "rmw":
            # Update-mode blocks never become exclusive, so an atomic
            # would retry its read fill forever; forbid it loudly.
            raise ValueError(
                "atomic operations are not supported on update-mode blocks"
            )
        if block in self.update_blocks and kind == "store":
            if line is not None:
                self._write_through(line, addr, payload)
                self.schedule(self.hit_latency, callback, None)
                return
            # No copy yet: fetch read-only first, then write through.
            self.counters.bump("cache.misses.store")
            self._enqueue_miss(kind, addr, payload, callback, block)
            return
        if line is not None and self._is_hit(kind, line):
            self._slots[_HIT_SLOT[kind]] += 1
            # Commit the operation at tag-check time; only the processor's
            # completion is delayed.  Applying later would open an atomicity
            # window where an INV ships the line away *before* the write or
            # read-modify-write lands, losing the update.
            result = self._apply(kind, line, addr, payload)
            self.schedule(self.hit_latency, callback, result)
            return
        self._slots[_MISS_SLOT[kind]] += 1
        if line is not None and kind in ("store", "rmw"):
            self._slots[_UPGRADES_SLOT] += 1
        self._enqueue_miss(kind, addr, payload, callback, block)

    @staticmethod
    def _is_hit(kind: str, line: CacheLine) -> bool:
        if kind == "load":
            return line.state in (CacheState.READ_ONLY, CacheState.READ_WRITE)
        return line.state is CacheState.READ_WRITE

    def _apply(self, kind: str, line: CacheLine, addr: int, payload) -> int | None:
        word = self.space.word_in_block(addr)
        if kind == "load":
            return line.data.words[word]
        if kind == "store":
            line.data.words[word] = payload
            line.written = True
            return None
        old = line.data.words[word]
        line.data.words[word] = payload(old)
        line.written = True
        return old

    # ------------------------------------------------------------------
    # Miss handling
    # ------------------------------------------------------------------

    def _enqueue_miss(
        self, kind: str, addr: int, payload, callback: Callback, block: int
    ) -> None:
        waiter = _Waiter(kind, addr, payload, callback, self.now)
        need_write = kind in ("store", "rmw") and block not in self.update_blocks
        mshr = self._mshrs.get(block)
        if mshr is not None:
            mshr.waiters.append(waiter)
            if need_write and not mshr.need_write:
                # A writer joined a read transaction: it will re-issue as an
                # upgrade after the read data arrives.
                self.counters.bump("cache.read_write_merge")
            return
        mshr = Mshr(block, need_write, self.now, [waiter])
        self._mshrs[block] = mshr
        self._send_request(mshr)

    def _send_request(self, mshr: Mshr) -> None:
        if mshr.block in self._wb_buffer:
            # Our dirty copy of this block has not been acknowledged by
            # home yet; a request now could be granted from stale memory.
            # Hold the request — the DACK releases it.
            mshr.wb_blocked = True
            self.counters.bump("cache.wb_held_requests")
            return
        mshr.wb_blocked = False
        home = self.space.home_of(mshr.block)
        opcode = Op.WREQ if mshr.need_write else Op.RREQ
        if home == self.node_id:
            self._slots[_LOCAL_REQ_SLOT] += 1
        else:
            self._slots[_REMOTE_REQ_SLOT] += 1
        self.nic.send(self.pool.protocol(self.node_id, home, opcode, mshr.block))
        self._arm_request_timer(mshr)

    # ------------------------------------------------------------------
    # Timeout and retransmission (fault tolerance)
    # ------------------------------------------------------------------

    def _retx_delay(self, attempts: int) -> int:
        delay = self.request_timeout * (2 ** min(attempts, 4))
        if self._rng is not None:
            # A dedicated substream: fault-free runs never draw from it,
            # so arming retransmission does not perturb "cache.retry".
            delay += self._rng.randint("cache.retx", 0, self.retry_base)
        return delay

    def _arm_request_timer(self, mshr: Mshr) -> None:
        if not self.request_timeout:
            return
        mshr.epoch += 1
        epoch = mshr.epoch
        self.schedule(
            self._retx_delay(mshr.timeouts),
            lambda: self._request_timer_fired(mshr, epoch),
        )

    def _request_timer_fired(self, mshr: Mshr, epoch: int) -> None:
        if (
            self._mshrs.get(mshr.block) is not mshr
            or mshr.epoch != epoch
            or mshr.wb_blocked
        ):
            return
        mshr.timeouts += 1
        self.counters.bump("cache.request_retx")
        self._send_request(mshr)

    def retransmit_request(self, block: int) -> bool:
        """Resend the outstanding request for ``block`` (no timer).

        The model checker's fault transitions call this directly; the
        runtime path goes through the timeout timer instead.
        """
        mshr = self._mshrs.get(block)
        if mshr is None or mshr.wb_blocked:
            return False
        mshr.timeouts += 1
        self.counters.bump("cache.request_retx")
        self._send_request(mshr)
        return True

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        self._rx[packet.opcode](packet)

    def _rx_unexpected(self, packet: Packet) -> None:  # pragma: no cover
        raise RuntimeError(f"{self.name}: unexpected packet {packet}")

    def _rdata(self, packet: Packet) -> None:
        self._fill(packet, CacheState.READ_ONLY)

    def _wdata(self, packet: Packet) -> None:
        self._fill(packet, CacheState.READ_WRITE)

    def _fill(self, packet: Packet, state: CacheState) -> None:
        block = packet.address
        mshr = self._mshrs.get(block)
        if mshr is None:
            if self.fault_tolerant:
                # A duplicate of a fill we already consumed, or a reply to
                # a retransmitted request whose original got through.  The
                # copy it grants is FIFO-ordered before anything else home
                # sends us, so discarding is safe.
                self.counters.bump("cache.stray_fills")
                self.counters.bump(f"cache.stray_fills.{packet.opcode}")
                return
            # A data reply for a transaction we no longer track would break
            # the directory's view of our copy; fail loudly.
            raise RuntimeError(f"{self.name}: fill without MSHR: {packet}")
        if self.fault_tolerant and mshr.wb_blocked:
            # The request for this miss has not even been sent yet (it is
            # held until home DACKs our buffered write-back), so this fill
            # is a duplicate answering an older, superseded transaction.
            # The genuine reply can only follow the released request.
            self.counters.bump("cache.stray_fills")
            self.counters.bump(f"cache.stray_fills.{packet.opcode}")
            return
        if self.fault_tolerant and mshr.need_write != (state is CacheState.READ_WRITE):
            # A read fill for what is now an upgrade miss (the waiters of
            # an earlier read fill re-issued as writers), or a write grant
            # for a re-opened read miss.  The reply matching the current
            # request is FIFO-ordered behind this stale one; drop it.
            self.counters.bump("cache.stray_fills")
            self.counters.bump(f"cache.stray_fills.{packet.opcode}")
            return
        del self._mshrs[block]
        victim = self.array.install(block, state, packet.data.copy())
        if victim is not None:
            self._evict(victim)
        latency = self.now - mshr.opened_at
        self.miss_latency_total += latency
        self.miss_latency_count += 1
        self.latency_hist.add((latency // 8) * 8)
        self._slots[_FILLS_SLOT] += 1
        for waiter in mshr.waiters:
            # Replay through the front door: hits complete, and a write
            # that only got read permission re-opens an upgrade miss.
            self.access(waiter.kind, waiter.addr, waiter.payload, waiter.callback)

    def _evict(self, victim: CacheLine) -> None:
        home = self.space.home_of(victim.block)
        if victim.state is CacheState.READ_WRITE:
            # Replace-modified: the only copy travels home with the data.
            self._slots[_EVICT_RW_SLOT] += 1
            if self.fault_tolerant:
                self._wb_buffer[victim.block] = _WbEntry(
                    victim.data.copy(), Op.REPM, None
                )
                self._send_writeback(victim.block)
                victim.state = CacheState.INVALID
                return
            self.nic.send(
                self.pool.protocol(
                    self.node_id, home, Op.REPM, victim.block,
                    data=victim.data.copy(),
                )
            )
        else:
            # Clean read-only copies are dropped silently; the directory
            # pointer goes stale and is resolved by a benign ACKC later.
            self._slots[_EVICT_RO_SLOT] += 1
        victim.state = CacheState.INVALID

    def _invalidate(self, packet: Packet) -> None:
        block = packet.address
        txn = packet.meta.get("txn")
        line = self.array.lookup(block)
        self._slots[_INV_RECEIVED_SLOT] += 1
        if line is not None and line.state is CacheState.READ_WRITE:
            # Dirty-exclusive copy: answer with the data (UPDATE).
            line.state = CacheState.INVALID
            if self.fault_tolerant:
                self._wb_buffer[block] = _WbEntry(line.data.copy(), Op.UPDATE, txn)
                self._send_writeback(block)
                return
            self.nic.send(
                self.pool.protocol(
                    self.node_id,
                    packet.src,
                    Op.UPDATE,
                    block,
                    data=line.data.copy(),
                    txn=txn,
                )
            )
            return
        wb = self._wb_buffer.get(block)
        if wb is not None:
            # Home is invalidating a copy whose dirty data is still in our
            # write-back buffer — the earlier UPDATE/REPM (or its DACK) was
            # lost.  Re-answer from the buffer, echoing the new transaction
            # id so the directory's acknowledgment counter matches.
            self.counters.bump("cache.wb_reanswers")
            wb.opcode = Op.UPDATE
            wb.txn = txn
            self._send_writeback(block)
            return
        if line is not None:
            line.state = CacheState.INVALID
        self.nic.send(
            self.pool.protocol(self.node_id, packet.src, Op.ACKC, block, txn=txn)
        )

    def _busy(self, packet: Packet) -> None:
        block = packet.address
        mshr = self._mshrs.get(block)
        if mshr is None:
            self.counters.bump("cache.busy_stray")
            return
        mshr.retries += 1
        # The directory answered, so the request was not lost: kill any
        # pending retransmission timer (the backoff retry below resends
        # and re-arms) by advancing the epoch.
        mshr.epoch += 1
        self._slots[_BUSY_RETRIES_SLOT] += 1
        delay = min(self.retry_cap, self.retry_base * (2 ** min(mshr.retries - 1, 5)))
        if self._rng is not None:
            delay += self._rng.randint("cache.retry", 0, self.retry_base)
        self.schedule(delay, lambda: self._retry(mshr))

    def _retry(self, mshr: Mshr) -> None:
        if self._mshrs.get(mshr.block) is mshr:
            self._send_request(mshr)

    # ------------------------------------------------------------------
    # Write-back buffer (fault tolerance)
    # ------------------------------------------------------------------

    def _send_writeback(self, block: int) -> None:
        entry = self._wb_buffer[block]
        home = self.space.home_of(block)
        if entry.txn is None:
            packet = self.pool.protocol(
                self.node_id, home, entry.opcode, block, data=entry.data.copy()
            )
        else:
            packet = self.pool.protocol(
                self.node_id, home, entry.opcode, block, data=entry.data.copy(),
                txn=entry.txn,
            )
        self.nic.send(packet)
        if not self.request_timeout:
            return
        entry.epoch += 1
        epoch = entry.epoch
        self.schedule(
            self._retx_delay(entry.retries),
            lambda: self._writeback_timer_fired(block, entry, epoch),
        )

    def _writeback_timer_fired(self, block: int, entry: _WbEntry, epoch: int) -> None:
        if self._wb_buffer.get(block) is not entry or entry.epoch != epoch:
            return
        entry.retries += 1
        self.counters.bump("cache.writeback_retx")
        self._send_writeback(block)

    def retransmit_writeback(self, block: int) -> bool:
        """Resend the buffered write-back for ``block`` (no timer).

        Model-checker entry point, mirroring :meth:`retransmit_request`.
        """
        if block not in self._wb_buffer:
            return False
        self._wb_buffer[block].retries += 1
        self.counters.bump("cache.writeback_retx")
        self._send_writeback(block)
        return True

    def _dack(self, packet: Packet) -> None:
        """Home acknowledged our write-back: retire the buffered data."""
        block = packet.address
        entry = self._wb_buffer.pop(block, None)
        if entry is None:
            self.counters.bump("cache.stray_dacks")
            return
        self.counters.bump("cache.dacks")
        mshr = self._mshrs.get(block)
        if mshr is not None and mshr.wb_blocked:
            # The held re-request can go out now that memory is current.
            self._send_request(mshr)

    def _write_through(self, line: CacheLine, addr: int, value: int) -> None:
        """Update-mode store: mutate the local copy and push it home."""
        word = self.space.word_in_block(addr)
        line.data.words[word] = value
        home = self.space.home_of(line.block)
        self.counters.bump("cache.write_throughs")
        self.nic.send(
            self.pool.protocol(
                self.node_id, home, Op.UPDATE, line.block, data=line.data.copy()
            )
        )

    def _absorb_update(self, packet: Packet) -> None:
        """Update-mode coherence (§6 extension): replace our copy's data.

        Pushes are fire-and-forget: update-mode objects are weakly ordered
        (see :mod:`repro.extensions.update`), and acknowledging every push
        would bury the home node's trap engine under ack traps.
        """
        line = self.array.lookup(packet.address)
        if line is not None and line.state is CacheState.READ_ONLY:
            line.data = packet.data.copy()
            self.counters.bump("cache.updates_absorbed")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def idle(self) -> bool:
        return not self._mshrs and not self._wb_buffer

    def mean_miss_latency(self) -> float:
        if not self.miss_latency_count:
            return 0.0
        return self.miss_latency_total / self.miss_latency_count

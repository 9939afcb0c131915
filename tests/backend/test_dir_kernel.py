"""The directory side of a miss transaction, row by row, on every backend.

``MemoryController.receive``/``process`` and the Table-2 cells are the
definition; on ``native`` their common case runs in C (``DirKernel`` in
``_native.c``) over the ``SoaDirectory`` columns, and everything else is
handed back to the Python method, counted by reason.  One case below per
row of the table in docs/BACKENDS.md ("what the compiled directory
executes, and what it hands back"): every compiled cell, both arms where
there are two, every hand-back reason, and the conditions under which no
kernel is installed at all.  Each is held to ``reference`` window for
window (kernel observables, every directory entry, the occupancy
resource) and at the end by checkpoint digest, per-node counters,
``worker_sets``, ``peak_sharers``, memory image and pool counts; on
``native`` the case also names the hand-back reasons it must (and the
only ones it may) produce.

Programs reach most cells.  The arms only a race or a lost packet
reaches are driven by *scripted caches*: a node whose cache-side receive
slots are rebound to a recorder that launches packets on a schedule and
answers ``INV`` as told (late, with a stale round id, with a ``REPM``
that crossed it).

The second half injects exceptions at the seams the kernel adds — a
``nic.send`` that raises in the middle of an invalidation fan-out, a
write-back payload ``write_block`` cannot land, a table cell somebody
rebinds — and every failure the directory itself raises, compared at the
raise and after the drain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import pytest

from repro import backend as backends
from repro.backend import equivalence_fingerprint, native
from repro.coherence.states import DirState, MetaState, ProtocolError
from repro.mem.memory import BlockData
from repro.network.packet import Op
from repro.recover.snapshot import state_digest

from .opstream import (
    BACKENDS,
    OpStreamWorkload,
    context_state,
    kernel_state,
    make_machine,
    word_address,
)

needs_extension = pytest.mark.skipif(
    not native.available(), reason="extension not built"
)

#: every reason the directory kernel can name
DIR_REASONS = {"dir_meta", "dir_overflow", "dir_override", "dir_error"}

_FULLMAP = {"protocol": "fullmap"}
#: with ``cache_lines=4`` word 4 (homed on node 0) and word 1 share a slot
_SMALL = {"cache_lines": 4}


def dir_kernel(node):
    """The node's installed ``DirKernel``, or ``None``."""
    process = vars(node.directory_controller).get("process")
    return process if type(process).__name__ == "DirKernel" else None


# ----------------------------------------------------------------------
# Scripted caches
# ----------------------------------------------------------------------


@dataclass
class Script:
    """What one scripted node does.

    ``sends``: ``(time, opcode, word, meta, data words or None)`` launched
    at the home of shared word ``word`` (or, for the packets no cache
    would send, ``word`` is ``(address, destination node)``).
    ``on_inv``: the answers to each ``INV`` received, ``(delay, opcode,
    txn, data words or None)`` with
    ``txn`` one of ``"echo"`` (the round's id), ``"stale"`` (one less),
    ``"none"`` (the key present, ``None``: an eviction acknowledgment)
    or ``"absent"`` (no key at all: a spontaneous ``REPM``).
    """

    sends: tuple = ()
    on_inv: tuple = ()


class ScriptedCache:
    """A node's cache side replaced by a recorder that follows a script."""

    def __init__(self, machine, node_id: int, script: Script) -> None:
        self.machine = machine
        self.node = machine.nodes[node_id]
        self.script = script
        self.log: list = []
        rx = self.node.cache_controller._rx
        for op in (Op.RDATA, Op.WDATA, Op.INV, Op.BUSY, Op.DACK):
            rx[op] = self.receive
        for action in script.sends:
            machine.sim.post(action[0], self.launch, action)

    def launch(self, action) -> None:
        _time, opcode, where, meta, words = action
        if isinstance(where, tuple):  # (address, the node it is sent to)
            address, dst = where
        else:
            address, dst = word_address(self.machine, where), None
        self.send(opcode, address, meta, words, dst=dst)

    def send(self, opcode, address, meta, words, *, dst=None) -> None:
        data = None
        if words is not None:
            data = words
            if isinstance(words, (list, tuple)):
                data = BlockData(0)
                data.words = list(words)
        if dst is None:
            dst = self.machine.space.home_of(address)
        node = self.node
        node.nic.send(
            node.pool.protocol(node.node_id, dst, Op[opcode], address, data=data, **meta)
        )

    def receive(self, packet) -> None:
        sim = self.machine.sim
        txn = packet.meta.get("txn")
        self.log.append(
            (
                sim.now,
                str(packet.opcode),
                packet.src,
                packet.address,
                txn,
                list(packet.data.words) if packet.data is not None else None,
            )
        )
        if packet.opcode is not Op.INV:
            return
        for delay, opcode, mode, words in self.script.on_inv:
            meta = {
                "echo": {"txn": txn},
                "stale": {"txn": (txn or 0) - 1},
                "none": {"txn": None},
                "absent": {},
            }[mode]
            sim.post(
                sim.now + delay,
                self.answer,
                (opcode, packet.address, meta, words),
            )

    def answer(self, reply) -> None:
        self.send(*reply)


# ----------------------------------------------------------------------
# Observation
# ----------------------------------------------------------------------


def directory_state(machine) -> list:
    """Every directory entry and occupancy resource, field for field."""
    state = []
    for node in machine.nodes:
        ctrl = node.directory_controller
        occupancy = ctrl.occupancy
        state.append(
            (
                node.node_id,
                (occupancy.free_at, occupancy.busy_cycles, occupancy.requests),
                [
                    (
                        e.block,
                        e.state.name,
                        sorted(e.sharers),
                        bool(e.local_bit),
                        e.requester,
                        sorted(e.ack_waiting),
                        e.txn,
                        e.meta.name,
                        e.trap_mode.name if e.trap_mode is not None else None,
                        len(e.pending),
                        e.peak_sharers,
                    )
                    for e in ctrl.directory.entries()
                ],
            )
        )
    return state


def final_state(machine, stats, scripted) -> dict:
    return {
        "digest": state_digest(machine),
        "fingerprint": equivalence_fingerprint(stats) if stats is not None else None,
        "counters": {n.node_id: n.counters.as_dict() for n in machine.nodes},
        "directory": directory_state(machine),
        "worker_sets": [
            n.directory_controller.worker_sets.as_sorted_items()
            for n in machine.nodes
        ],
        "memory": [
            sorted((block, list(data.words)) for block, data in n.memory._blocks.items())
            for n in machine.nodes
        ],
        "fifo": [
            sorted(getattr(n.directory_controller, "_fifo_order", {}).items())
            for n in machine.nodes
        ],
        "nic": [(n.nic.packets_sent, n.nic.packets_received) for n in machine.nodes],
        "pool": (machine.pool.allocated, machine.pool.recycled, len(machine.pool)),
        "scripted": {node_id: cache.log for node_id, cache in scripted.items()},
    }


@dataclass
class Case:
    """One row: programs, scripted caches, the machine they run on, the
    table cells the row must reach and what native may hand back."""

    name: str
    streams: dict
    #: hand-back reasons that must be non-zero on native; all others 0
    reasons: frozenset = frozenset()
    #: ``(DirState, Op)`` cells that must run at least once
    cells: tuple = ()
    #: counters that must be non-zero somewhere (the arm really happened)
    witness: tuple = ()
    #: counters that must stay zero (the *other* arm did not)
    absent: tuple = ()
    overrides: dict = field(default_factory=dict)
    scripts: dict = field(default_factory=dict)
    poke: object = None
    #: scripted caches hold no lines, so the end-of-run audit would object
    audit: bool = True


def _idle(*procs):
    return {p: [[("think", 1)]] for p in procs}


def _spy_on_cells(machine, seen: set) -> None:
    """Record which table cells run (reference only: on native a rebound
    cell is, rightly, no longer the compiled one)."""
    for node in machine.nodes:
        table = node.directory_controller._table
        for state in DirState:
            for op in Op:
                handler = table[state][op]

                def recording(entry, packet, handler=handler, key=(state, op)):
                    seen.add(key)
                    handler(entry, packet)

                table[state][op] = recording


def run_case(case: Case, backend: str, window: int = 16, *, seen=None):
    machine = make_machine(backend, **case.overrides)
    trace: list = []
    scripted: dict = {}

    def driver(m):
        if seen is not None:
            _spy_on_cells(m, seen)
        for node_id, script in case.scripts.items():
            scripted[node_id] = ScriptedCache(m, node_id, script)
        if case.poke is not None:
            case.poke(m)
        sim = m.sim
        guard = 0
        while sim.pending_events:
            guard += 1
            assert guard < 100_000
            sim.run_until(sim.now + window)
            trace.append((kernel_state(m), directory_state(m)))

    stats = machine.run(
        OpStreamWorkload(case.streams), driver=driver, audit=case.audit
    )
    return trace, final_state(machine, stats, scripted), machine


# -- scripts ------------------------------------------------------------

_D = [7, 0, 0, 0]  # a dirty copy's words


def _owner(node_answers: tuple) -> Script:
    """Takes word 0 exclusive at t=5, then answers ``INV`` as given."""
    return Script(sends=((5, "WREQ", 0, {}, None),), on_inv=node_answers)


def _reader(node_answers: tuple) -> Script:
    """Reads word 0 at t=5, then answers ``INV`` as given."""
    return Script(sends=((5, "RREQ", 0, {}, None),), on_inv=node_answers)


_UPDATE_LATE = ((150, "UPDATE", "echo", _D),)
_STORE_AT_60 = {1: [[("think", 60), ("store", 0, 5), ("load", 0)]]}
_LOAD_AT_60 = {1: [[("think", 60), ("load", 0), ("load", 0)]]}

CASES = [
    # -- READ_ONLY ------------------------------------------------------
    Case("ro_rreq_pointer_free",
         {1: [[("load", 0)]], 2: [[("think", 30), ("load", 0)]], **_idle(0, 3)},
         cells=((DirState.READ_ONLY, Op.RREQ),), overrides=_FULLMAP),
    Case("ro_rreq_from_the_home_sets_the_local_bit",
         {0: [[("load", 0), ("load", 4)]], **_idle(1, 2, 3)},
         cells=((DirState.READ_ONLY, Op.RREQ),), overrides=_FULLMAP),
    Case("ro_rreq_from_a_recorded_holder",
         {1: [[("load", 4), ("load", 1), ("load", 4)]], **_idle(0, 2, 3)},
         cells=((DirState.READ_ONLY, Op.RREQ),), witness=("cache.evict_ro",),
         overrides={**_FULLMAP, **_SMALL}),
    Case("ro_wreq_uncached_grants_at_once",
         {1: [[("store", 0, 5), ("load", 0)]], **_idle(0, 2, 3)},
         cells=((DirState.READ_ONLY, Op.WREQ),), absent=("dir.invalidations",),
         overrides=_FULLMAP),
    Case("ro_wreq_sole_sharer_upgrades_at_once",
         {1: [[("load", 0), ("think", 5), ("store", 0, 5)]], **_idle(0, 2, 3)},
         cells=((DirState.READ_ONLY, Op.WREQ),), witness=("cache.upgrades",),
         absent=("dir.invalidations",), overrides=_FULLMAP),
    Case("ro_wreq_fans_out_invalidations_and_collects_acks",
         {0: [[("load", 0)]], 2: [[("load", 0)]], 3: [[("load", 0)]],
          1: [[("load", 0), ("think", 150), ("store", 0, 5)]]},
         cells=((DirState.READ_ONLY, Op.WREQ), (DirState.WRITE_TRANSACTION, Op.ACKC)),
         witness=("dir.invalidations", "dir.write_transactions_done"),
         overrides=_FULLMAP),
    Case("ro_strays_ackc_and_repm",
         _idle(0, 1, 2, 3),
         cells=((DirState.READ_ONLY, Op.ACKC), (DirState.READ_ONLY, Op.REPM)),
         witness=("dir.stray.ACKC", "dir.stray.REPM"), overrides=_FULLMAP,
         scripts={3: Script(sends=((5, "ACKC", 0, {"txn": None}, None),
                                   (9, "REPM", 0, {}, _D)))},
         audit=False),
    # -- READ_WRITE -----------------------------------------------------
    Case("rw_rreq_recalls_the_dirty_copy",
         {1: [[("store", 0, 9)]], 2: [[("think", 120), ("load", 0)]], **_idle(0, 3)},
         cells=((DirState.READ_WRITE, Op.RREQ), (DirState.READ_TRANSACTION, Op.UPDATE)),
         witness=("dir.read_transactions_done",), overrides=_FULLMAP),
    Case("rw_wreq_from_another_node_recalls_the_owner",
         {1: [[("store", 0, 9)]], 2: [[("think", 120), ("store", 0, 4)]], **_idle(0, 3)},
         cells=((DirState.READ_WRITE, Op.WREQ), (DirState.WRITE_TRANSACTION, Op.UPDATE)),
         witness=("dir.write_transactions_done",), absent=("dir.regrant",),
         overrides=_FULLMAP),
    Case("rw_wreq_from_the_owner_is_regranted",
         _idle(0, 1, 2, 3),
         cells=((DirState.READ_WRITE, Op.WREQ),), witness=("dir.regrant",),
         overrides=_FULLMAP,
         scripts={3: Script(sends=((5, "WREQ", 0, {}, None), (90, "WREQ", 0, {}, None)))},
         audit=False),
    Case("rw_repm_from_the_owner_lands_the_data",
         {1: [[("store", 4, 9), ("load", 1), ("load", 4)]], **_idle(0, 2, 3)},
         cells=((DirState.READ_WRITE, Op.REPM),), witness=("cache.evict_rw",),
         absent=("dir.stray_dropped",), overrides={**_FULLMAP, **_SMALL}),
    Case("rw_repm_from_a_stranger_and_rw_ackc_are_strays",
         {1: [[("store", 0, 9)]], **_idle(0, 2, 3)},
         cells=((DirState.READ_WRITE, Op.REPM), (DirState.READ_WRITE, Op.ACKC)),
         witness=("dir.stray.REPM", "dir.stray.ACKC"), overrides=_FULLMAP,
         scripts={3: Script(sends=((150, "REPM", 0, {}, _D),
                                   (170, "ACKC", 0, {"txn": None}, None)))},
         audit=False),
    # -- WRITE_TRANSACTION ----------------------------------------------
    Case("wt_requests_bounce_busy",
         {**_STORE_AT_60, 2: [[("think", 100), ("load", 0)]], **_idle(0, 3)},
         cells=((DirState.WRITE_TRANSACTION, Op.RREQ),
                (DirState.WRITE_TRANSACTION, Op.UPDATE)),
         witness=("dir.busy_sent", "cache.busy_retries"), overrides=_FULLMAP,
         scripts={3: _owner(_UPDATE_LATE)}, audit=False),
    Case("wt_ackc_without_or_with_a_stale_round_is_stray",
         {**_STORE_AT_60, **_idle(0, 2, 3)},
         cells=((DirState.WRITE_TRANSACTION, Op.ACKC),),
         witness=("dir.stray.ACKC", "dir.write_transactions_done"),
         overrides=_FULLMAP,
         scripts={3: _reader(((1, "ACKC", "none", None), (3, "ACKC", "stale", None),
                              (40, "ACKC", "echo", None)))},
         audit=False),
    Case("wt_update_with_a_stale_round_is_stray",
         {**_STORE_AT_60, **_idle(0, 2, 3)},
         cells=((DirState.WRITE_TRANSACTION, Op.UPDATE),),
         witness=("dir.stray.UPDATE", "dir.write_transactions_done"),
         overrides=_FULLMAP,
         scripts={3: _owner(((1, "UPDATE", "stale", _D), (40, "UPDATE", "echo", _D)))},
         audit=False),
    Case("wt_repm_crossing_the_inv_counts_as_the_ack",
         {**_STORE_AT_60, **_idle(0, 2, 3)},
         cells=((DirState.WRITE_TRANSACTION, Op.REPM),),
         witness=("dir.write_transactions_done",), absent=("dir.stray_dropped",),
         overrides=_FULLMAP,
         scripts={3: _owner(((1, "REPM", "absent", _D),))}, audit=False),
    Case("wt_repm_from_a_node_not_awaited_is_stray",
         {**_STORE_AT_60, **_idle(0, 2, 3)},
         cells=((DirState.WRITE_TRANSACTION, Op.REPM),), witness=("dir.stray.REPM",),
         overrides=_FULLMAP,
         scripts={3: _owner(_UPDATE_LATE),
                  2: Script(sends=((120, "REPM", 0, {}, _D),))},
         audit=False),
    # -- READ_TRANSACTION -----------------------------------------------
    Case("rt_requests_bounce_busy",
         {**_LOAD_AT_60, 2: [[("think", 100), ("store", 0, 3)]], **_idle(0, 3)},
         cells=((DirState.READ_TRANSACTION, Op.WREQ),
                (DirState.READ_TRANSACTION, Op.UPDATE)),
         witness=("dir.busy_sent", "dir.read_transactions_done"), overrides=_FULLMAP,
         scripts={3: _owner(_UPDATE_LATE)}, audit=False),
    Case("rt_update_with_a_stale_round_is_stray",
         {**_LOAD_AT_60, **_idle(0, 2, 3)},
         cells=((DirState.READ_TRANSACTION, Op.UPDATE),),
         witness=("dir.stray.UPDATE", "dir.read_transactions_done"),
         overrides=_FULLMAP,
         scripts={3: _owner(((1, "UPDATE", "stale", _D), (40, "UPDATE", "echo", _D)))},
         audit=False),
    Case("rt_repm_crossing_the_inv_completes_the_read",
         {**_LOAD_AT_60, **_idle(0, 2, 3)},
         cells=((DirState.READ_TRANSACTION, Op.REPM),),
         witness=("dir.read_transactions_done",), absent=("dir.stray_dropped",),
         overrides=_FULLMAP,
         scripts={3: _owner(((1, "REPM", "absent", _D),))}, audit=False),
    Case("rt_repm_from_a_stranger_and_a_late_eviction_ack_are_strays",
         {**_LOAD_AT_60, **_idle(0, 2, 3)},
         cells=((DirState.READ_TRANSACTION, Op.REPM), (DirState.READ_TRANSACTION, Op.ACKC)),
         witness=("dir.stray.REPM", "dir.stray.ACKC", "dir.read_transactions_done"),
         overrides=_FULLMAP,
         scripts={3: _owner(_UPDATE_LATE),
                  2: Script(sends=((120, "REPM", 0, {}, _D),
                                   (130, "ACKC", 0, {"txn": None}, None)))},
         audit=False),
    # -- Dir_iNB: the one override the kernel mirrors -----------------------
    Case("limited_read_with_a_pointer_free",
         {1: [[("load", 0)]], 2: [[("think", 40), ("load", 0), ("think", 40), ("load", 0)]],
          **_idle(0, 3)},
         cells=((DirState.READ_ONLY, Op.RREQ),), absent=("dir.pointer_evictions",),
         overrides={"protocol": "limited", "pointers": 2}),
    Case("limited_read_overflow_evicts_the_fifo_victim",
         {1: [[("load", 0), ("think", 300), ("load", 0)]],
          2: [[("think", 40), ("load", 0)]],
          3: [[("think", 80), ("load", 0), ("think", 100), ("load", 4)]],
          0: [[("think", 120), ("load", 0)]]},
         cells=((DirState.READ_ONLY, Op.RREQ), (DirState.READ_ONLY, Op.ACKC)),
         witness=("dir.pointer_evictions", "dir.read_overflow", "dir.stray.ACKC"),
         overrides={"protocol": "limited", "pointers": 2}),
    Case("limited_single_pointer_thrashes",
         {p: [[("think", 10 * p), ("load", 0), ("think", 60), ("load", 0), ("store", 0, p)]]
          for p in range(4)},
         witness=("dir.pointer_evictions", "dir.invalidations"),
         overrides={"protocol": "limited", "pointers": 1}),
    # -- hand-backs -----------------------------------------------------
    Case("limitless_overflow_interlock_and_write_termination",
         {1: [[("load", 0), ("think", 400), ("load", 4)]],
          2: [[("think", 30), ("load", 0)]],
          3: [[("think", 40), ("load", 0), ("think", 300), ("store", 0, 6)]],
          0: [[("think", 45), ("load", 0)]]},
         reasons=frozenset({"dir_meta", "dir_overflow"}),
         witness=("limitless.overflow_diverts", "dir.interlocked", "dir.diverted",
                  "limitless.write_termination_traps", "dir.replayed"),
         overrides={"protocol": "limitless", "pointers": 1}),
    Case("trap_on_write_reads_stay_compiled",
         {1: [[("load", 0)]], 2: [[("think", 30), ("load", 0)]],
          3: [[("think", 200), ("load", 0)]], **_idle(0)},
         reasons=frozenset({"dir_overflow"}),
         witness=("limitless.read_overflow_traps",), absent=("dir.interlocked",),
         overrides={"protocol": "limitless", "pointers": 1}),
    Case("chained_keeps_its_write_cells",
         {0: [[("load", 0)]], 2: [[("load", 0)]],
          1: [[("load", 0), ("think", 150), ("store", 0, 5)]], **_idle(3)},
         reasons=frozenset({"dir_override"}), witness=("chained.serial_steps",),
         overrides={"protocol": "chained"}),
    Case("broadcast_keeps_its_write_cell_and_its_overflow_policy",
         {1: [[("load", 0)]], 2: [[("think", 30), ("load", 0)]],
          3: [[("think", 60), ("load", 0), ("think", 100), ("store", 0, 5)]], **_idle(0)},
         reasons=frozenset({"dir_override", "dir_overflow"}),
         witness=("dir.broadcast_invalidates",),
         overrides={"protocol": "limited_broadcast", "pointers": 1}),
    Case("a_fault_tolerant_flag_hands_both_steps_back",
         {1: [[("store", 0, 9)]], 2: [[("think", 120), ("load", 0)]], **_idle(0, 3)},
         reasons=frozenset({"fault_tolerant"}), witness=("dir.dacks_sent",),
         overrides=_FULLMAP,
         poke=lambda m: [setattr(n.directory_controller, "fault_tolerant", True)
                         for n in m.nodes]),
    # -- the send primitive follows the fabric; the cells stay compiled ----
    Case("ideal_fabric_sends_through_the_python_nic",
         {0: [[("load", 0)]], 2: [[("load", 0)]],
          1: [[("load", 0), ("think", 150), ("store", 0, 5)]], **_idle(3)},
         reasons=frozenset({"fabric"}), witness=("dir.invalidations",),
         overrides={**_FULLMAP, "topology": "ideal"}),
    Case("crc_stamping_sends_through_the_python_nic",
         {1: [[("store", 0, 9)]], 2: [[("think", 120), ("load", 0)]], **_idle(0, 3)},
         reasons=frozenset({"crc"}), witness=("dir.read_transactions_done",),
         overrides=_FULLMAP,
         poke=lambda m: [setattr(n.nic, "crc_enabled", True) for n in m.nodes]),
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_row_matches_reference_on_every_backend(case):
    seen: set = set()
    ref_trace, ref_final, _ = run_case(case, "reference", seen=seen)
    for cell in case.cells:
        assert cell in seen, f"{case.name} never ran {cell[0].name} x {cell[1].name}"
    total: dict = {}
    for counters in ref_final["counters"].values():
        for name, count in counters.items():
            total[name] = total.get(name, 0) + count
    for name in case.witness:
        assert total.get(name), f"{case.name} never reached {name}"
    for name in case.absent:
        assert not total.get(name), f"{case.name} reached {name}"
    for backend in BACKENDS[1:]:
        trace, final, machine = run_case(case, backend)
        assert trace == ref_trace, backend
        assert final == ref_final, backend
        if backend == "native" and native.available():
            assert all(dir_kernel(node) is not None for node in machine.nodes)
            handed = native.fallthroughs(machine)
            assert handed.pop("op") == 0
            # the cache side's own rare cases are test_cache_kernel's
            for reason in ("victim", "mshr_merge", "replay"):
                handed.pop(reason)
            nonzero = {reason for reason, count in handed.items() if count}
            assert nonzero == set(case.reasons), handed


@needs_extension
def test_hand_backs_equal_the_software_path_counters():
    """``dir_meta`` is exactly the packets ``_meta_intercept`` queued or
    diverted, ``dir_overflow`` exactly the overflowed reads."""
    case = next(c for c in CASES if c.name.startswith("limitless_overflow"))
    _trace, final, machine = run_case(case, "native")
    handed = native.fallthroughs(machine)
    total: dict = {}
    for counters in final["counters"].values():
        for name, count in counters.items():
            total[name] = total.get(name, 0) + count
    assert handed["dir_overflow"] == total["limitless.overflow_diverts"]
    assert (
        handed["dir_meta"] + handed["dir_overflow"]
        == total["dir.diverted"] + total["dir.interlocked"]
    )


# ----------------------------------------------------------------------
# Where no kernel is installed
# ----------------------------------------------------------------------

_SHARING = {
    0: [[("load", 0)]],
    2: [[("load", 0)]],
    1: [[("load", 0), ("think", 150), ("store", 0, 5), ("load", 1)]],
    3: [[("think", 60), ("store", 1, 2), ("load", 0)]],
}


@needs_extension
@pytest.mark.parametrize(
    "overrides",
    [
        {"protocol": "limitless_approx"},  # overrides dispatch
        {"protocol": "trap_always"},  # overrides _meta_intercept
        {"fault_delay_rate": 1e-12},  # inv_timeout != 0 (and fault_tolerant)
    ],
    ids=lambda o: next(iter(o.values())) if "protocol" in o else "fault_tolerant",
)
def test_no_kernel_on_a_controller_that_is_not_the_mirrored_pipeline(overrides):
    case = Case("uninstalled", _SHARING, overrides=overrides)
    ref_trace, ref_final, _ = run_case(case, "reference")
    trace, final, machine = run_case(case, "native")
    assert (trace, final) == (ref_trace, ref_final)
    assert all(dir_kernel(node) is None for node in machine.nodes)
    handed = native.fallthroughs(machine)
    assert not any(handed[reason] for reason in DIR_REASONS)


@needs_extension
def test_no_kernel_past_64_nodes():
    """Pointer masks are read as ``uint64``: a wider machine keeps the
    Python pipeline (and still runs the compiled step and cache side)."""
    streams = {p: [[("load", 0), ("think", 40), ("store", p % 4, p)]] for p in (0, 65, 127)}
    case = Case("wide", streams, overrides={**_FULLMAP, "n_procs": 128})
    ref_trace, ref_final, _ = run_case(case, "reference", window=64)
    trace, final, machine = run_case(case, "native", window=64)
    assert (trace, final) == (ref_trace, ref_final)
    assert all(dir_kernel(node) is None for node in machine.nodes)
    assert native.fallthroughs(machine)["op"] == 0


@needs_extension
def test_no_kernel_without_the_soa_directory(monkeypatch):
    plain = replace(backends.get_backend("native"), make_directory=lambda node: None)
    monkeypatch.setitem(backends._INSTANCES, "native", plain)
    case = Case("plain_directory", _SHARING, overrides=_FULLMAP)
    ref_trace, ref_final, _ = run_case(case, "reference")
    trace, final, machine = run_case(case, "native")
    assert (trace, final) == (ref_trace, ref_final)
    assert all(dir_kernel(node) is None for node in machine.nodes)


@needs_extension
def test_a_python_packet_pool_hands_every_step_back_as_pool(monkeypatch):
    plain = replace(backends.get_backend("native"), make_pool=None)
    monkeypatch.setitem(backends._INSTANCES, "native", plain)
    case = Case("pool", _SHARING, overrides=_FULLMAP)
    ref_trace, ref_final, _ = run_case(case, "reference")
    trace, final, machine = run_case(case, "native")
    assert (trace, final) == (ref_trace, ref_final)
    handed = native.fallthroughs(machine)
    assert {reason for reason, n in handed.items() if n} == {"pool"}


# ----------------------------------------------------------------------
# Failures: the directory's own, and exceptions at the new seams
# ----------------------------------------------------------------------


class Boom(Exception):
    pass


def crash(case: Case, backend: str) -> dict:
    """Run ``case`` until something raises; report what is left."""
    machine = make_machine(backend, **case.overrides)
    scripted: dict = {}

    def driver(m):
        for node_id, script in case.scripts.items():
            scripted[node_id] = ScriptedCache(m, node_id, script)
        if case.poke is not None:
            case.poke(m)
        m.sim.run()

    with pytest.raises(Exception) as caught:
        machine.run(OpStreamWorkload(case.streams), driver=driver, audit=False)
    at_raise = (
        kernel_state(machine),
        context_state(machine),
        final_state(machine, None, scripted),
    )
    # A poke that keeps raising would never drain: one failure per test.
    machine.sim.run()
    assert machine.sim.pending_events == 0
    drained = (kernel_state(machine), final_state(machine, None, scripted))
    return {
        "error": (caught.type, str(caught.value)),
        "at_raise": at_raise,
        "drained": drained,
        "handed": native.fallthroughs(machine) if backend == "native" else None,
    }


def assert_crashes_like_reference(case: Case, reason=None) -> dict:
    expected = crash(case, "reference")
    for backend in BACKENDS[1:]:
        got = crash(case, backend)
        handed = got.pop("handed")
        assert got == {k: v for k, v in expected.items() if k != "handed"}, backend
        if handed is not None and native.available() and reason is not None:
            assert handed[reason] >= 1, handed
    return expected


def _home_word(machine, word=0):
    return word_address(machine, word)


_RAISING = [
    # (name, what the reference raises, hand-back reason, case)
    ("not_homed_here", "not homed here", "dir_error",
     Case("x", _idle(0, 1, 2, 3), overrides=_FULLMAP,
          scripts={3: Script(sends=((5, "RREQ", ((1 << 22) + 0x110, 0), {}, None),))})),
    ("not_block_aligned", "not block aligned", "dir_error",
     Case("x", _idle(0, 1, 2, 3), overrides=_FULLMAP,
          scripts={3: Script(sends=((5, "RREQ", (0x114, 0), {}, None),))})),
    ("unexpected_packet_for_the_state", "UPDATE in READ_ONLY", "dir_override",
     Case("x", _idle(0, 1, 2, 3), overrides=_FULLMAP,
          scripts={3: Script(sends=((5, "UPDATE", 0, {"txn": 1}, _D),))})),
    ("dataless_ackc_from_the_awaited_owner", "dataless ACKC from owner", "dir_error",
     Case("x", {**_LOAD_AT_60, **_idle(0, 2, 3)}, overrides=_FULLMAP,
          scripts={3: _owner(((1, "ACKC", "echo", None),))})),
]


@pytest.mark.parametrize("name,message,reason,case", _RAISING, ids=lambda v: v if isinstance(v, str) and " " not in v else None)
def test_directory_failures_are_raised_by_the_python_method(name, message, reason, case):
    expected = assert_crashes_like_reference(case, reason)
    assert expected["error"][0] in (ProtocolError, ValueError)
    assert message in expected["error"][1]


def _entry(machine, word=0):
    ctrl = machine.nodes[0].directory_controller
    return ctrl.directory.entry(word_address(machine, word))


def test_read_write_with_two_holders_raises_from_rw_owner():
    def corrupt(machine):  # after node 1 owns the block, before node 2 asks
        machine.sim.post(100, lambda: setattr(_entry(machine), "local_bit", True))

    case = Case("x", {1: [[("store", 0, 9)]], 2: [[("think", 120), ("load", 0)]],
                      **_idle(0, 3)}, overrides=_FULLMAP, poke=corrupt)
    expected = assert_crashes_like_reference(case, "dir_error")
    assert expected["error"][0] is ProtocolError
    assert "READ_WRITE with holders=" in expected["error"][1]


@pytest.mark.parametrize("kind", ["load", "store"])
def test_a_transaction_that_lost_its_requester_raises(kind):
    def corrupt(machine):  # the round is open, the owner's answer in flight
        machine.sim.post(100, lambda: setattr(_entry(machine), "requester", None))

    op = ("load", 0) if kind == "load" else ("store", 0, 5)
    case = Case("x", {1: [[("think", 60), op]], **_idle(0, 2, 3)}, overrides=_FULLMAP,
                scripts={3: _owner(_UPDATE_LATE)}, poke=corrupt)
    expected = assert_crashes_like_reference(case, "dir_error")
    assert expected["error"][0] is ProtocolError
    assert "lost requester" in expected["error"][1]


def test_nic_send_raising_in_the_middle_of_a_fan_out():
    """The second of three INVs never leaves: the round is open, the
    worker set counted, ``dir.invalidations`` not yet."""

    def sabotage(machine):
        nic = machine.nodes[0].nic
        send = nic.send
        launched = []

        def flaky(packet):
            if packet.opcode is Op.INV:
                launched.append(packet.dst)
                if len(launched) == 2:
                    raise Boom("link down")
            send(packet)

        nic.send = flaky

    case = next(c for c in CASES if c.name.startswith("ro_wreq_fans_out"))
    expected = assert_crashes_like_reference(replace(case, poke=sabotage))
    assert expected["error"] == (Boom, "link down")
    directory = dict(
        (node, entries) for node, _occ, entries in expected["at_raise"][2]["directory"]
    )
    (entry,) = directory[0]
    assert entry[1] == "WRITE_TRANSACTION" and len(entry[5]) == 3
    assert expected["at_raise"][2]["worker_sets"][0] == [(4, 1)]
    assert "dir.invalidations" not in expected["at_raise"][2]["counters"][0]


class _Sized:
    """``len()`` works (the fabric sizes the packet), ``list()`` does not."""

    def __len__(self):
        return 4


class _NotBlockData:
    words = _Sized()


@pytest.mark.parametrize("words", [(7, 0, 0, 0), _Sized()], ids=["tuple", "uniterable"])
def test_a_write_back_payload_that_is_not_block_data(words):
    """Not ``BlockData``: the kernel hands the packet back untouched
    (``malformed``), and ``write_block`` lands a tuple of words or raises
    on something it cannot copy — after the ack was consumed."""
    payload = _NotBlockData()
    payload.words = words
    case = Case("x", {**_STORE_AT_60, **_idle(0, 2, 3)}, overrides=_FULLMAP,
                scripts={3: _owner(((1, "UPDATE", "echo", payload),))}, audit=False)
    if isinstance(words, tuple):
        ref_trace, ref_final, _ = run_case(case, "reference")
        for backend in BACKENDS[1:]:
            trace, final, machine = run_case(case, backend)
            assert (trace, final) == (ref_trace, ref_final), backend
            if backend == "native" and native.available():
                assert native.fallthroughs(machine)["malformed"] == 1
        return
    expected = assert_crashes_like_reference(case, "malformed")
    assert expected["error"][0] is TypeError
    (entry,) = [e for _n, _o, entries in expected["at_raise"][2]["directory"] for e in entries]
    assert entry[5] == []  # the ack was consumed before the landing failed


@needs_extension
def test_a_rebound_table_cell_is_called_not_compiled():
    seen = []
    case = Case("x", {1: [[("load", 0)]], 2: [[("think", 30), ("load", 0)]],
                      **_idle(0, 3)}, overrides=_FULLMAP)

    def rebind(machine):
        table = machine.nodes[0].directory_controller._table
        original = table[DirState.READ_ONLY][Op.RREQ]

        def spy(entry, packet):
            seen.append(packet.src)
            original(entry, packet)

        table[DirState.READ_ONLY][Op.RREQ] = spy

    ref_trace, ref_final, _ = run_case(case, "reference")
    trace, final, machine = run_case(replace(case, poke=rebind), "native")
    assert (trace, final) == (ref_trace, ref_final)
    assert seen == [1, 2]
    assert native.fallthroughs(machine)["dir_override"] == 2


def test_a_rebound_table_cell_that_raises():
    def rebind(machine):
        def broken(entry, packet):
            raise Boom("cell")

        machine.nodes[0].directory_controller._table[DirState.READ_ONLY][Op.WREQ] = broken

    case = Case("x", {1: [[("load", 0), ("store", 0, 5)]], **_idle(0, 2, 3)},
                overrides=_FULLMAP, poke=rebind)
    assert assert_crashes_like_reference(case, "dir_override")["error"] == (Boom, "cell")


@needs_extension
def test_a_dismantled_machine_raises_what_reference_raises():
    """An emptied controller ``__dict__``: the kernel reads no flag, says
    ``malformed``, and the Python method raises about the missing part."""

    def run(backend):
        machine = make_machine(backend, **_FULLMAP)
        ctrl = machine.nodes[0].directory_controller
        receive = ctrl.receive
        packet = machine.pool.protocol(1, 0, Op.RREQ, 0x100)
        kernel = dir_kernel(machine.nodes[0])
        vars(ctrl).clear()
        with pytest.raises(AttributeError) as raised:
            receive(packet)
        return str(raised.value).split("object")[1], kernel

    message, kernel = run("native")
    assert message == run("reference")[0]
    assert kernel.handbacks["malformed"] == 1

"""Compiled hot-path kernels behind the backend seam.

The ``native`` backend is the LimitLESS argument applied to the
simulator itself: the common case (event ring scheduling, cache-hit
issue, directory dispatch, wormhole route stepping, packet pooling)
runs at compiled speed, while every rare case — protocol corner
handlers, traps, faults, CRC verification — falls through to the same
pure-Python code that defines the golden semantics.

The extension (``_native.c``) is a hand-written CPython C module built
by ``setup.py build_ext --inplace``.  It is strictly optional: when it
does not import (not built, wrong interpreter, ``REPRO_NATIVE=0``) or
was built from another ``_native.c`` than the one checked out, the
backend registry silently degrades ``backend="native"`` to the
``reference`` components and records the reason in :func:`load_status` /
``Backend.notes`` so runs proceed and report the fallback honestly.

Exactness is non-negotiable: the compiled kernels replicate the
reference ``Simulator``/``Processor``/``CacheController``/
``WormholeNetwork`` methods observable-for-observable (sequence numbers,
execution order, exception partial effects), and the equivalence golden
tier in ``tests/backend`` pins them against the committed SHA-256
fingerprints with the extension present *and* absent.  Two things a run
does per event stay out of Python objects until it returns — ring
entries are C structs, counter bumps C integers folded into the usual
attributes by one settle on every exit — so "observable" means: at any
instant Python code can look *between* runs (docs/BACKENDS.md, "The
settle contract").
"""

from __future__ import annotations

import hashlib
import operator
import os
from pathlib import Path
from typing import Optional

from ...cache import controller as cc
from ...coherence import controller as dc
from ...coherence.limited import LimitedController
from ...coherence.states import DirState, MetaState
from ...mem.memory import MainMemory
from ...network.fabric import WormholeNetwork
from ...network.packet import N_OPS, OP_NAMES
from ...proc import processor as pp
from ...sim.kernel import Simulator, StallableResource
from ...stats.counters import Counters
from ..soa import SoaCacheArray, SoaDirectory

#: the core's scheduling ring: ``RING`` slots in ``_native.c``
_RING = 64

_native = None
_IMPORT_ERROR: Optional[str] = None

if os.environ.get("REPRO_NATIVE", "") == "0":
    _IMPORT_ERROR = "disabled via REPRO_NATIVE=0"
else:  # pragma: no branch - trivial import guard
    try:
        import importlib

        # import_module (not ``from . import``): the module-level
        # ``_native = None`` placeholder above would otherwise satisfy
        # the fromlist lookup without ever loading the extension.
        _native = importlib.import_module("._native", __name__)
    except ImportError as exc:  # pragma: no cover - depends on build
        _IMPORT_ERROR = f"extension not built ({exc})"


def available() -> bool:
    """True when the compiled extension imported and accepted setup()."""
    return load_status()[0]


def load_status() -> tuple[bool, Optional[str]]:
    """``(available, reason_if_not)`` for fallback reporting."""
    _ensure_setup()
    return (_native is not None, _IMPORT_ERROR)


_setup_done = False


def _stale(why) -> None:
    global _native, _IMPORT_ERROR
    _native = None
    _IMPORT_ERROR = (
        f"extension stale ({why}); rebuild with "
        "python setup.py build_ext --inplace"
    )


def _ensure_setup() -> None:
    """Inject the Python-side classes into the extension, once.

    The extension never imports repro modules itself — the Python layer
    hands over every class, sentinel, and constant the kernels compare
    against, so there is exactly one definition of each.  A shared
    object built from another ``_native.c`` than the one checked out is
    reported like an extension that did not import, not raised: it
    asks for names this spec lacks, or rejects their shape, or its
    ``Core`` is not the one ``NativeSimulator`` drives, or — the check
    that catches every other difference — its build stamp is not the
    hash of the source next to it (skipped when no source is shipped).
    """
    global _setup_done
    if _setup_done or _native is None:
        return
    _setup_done = True  # the NativeSimulator() probe below comes back here
    from ...cache.controller import Mshr, _Waiter
    from ...mem.memory import BlockData
    from ...network.fabric import NetworkStats
    from ...network.packet import (
        _DATA_BEARING,
        _LAST_CACHE_TO_MEMORY,
        OP_BY_NAME,
        Op,
        Packet,
        protocol_packet,
    )
    from ...proc import ops
    from ...proc.processor import Context, ContextState
    from ...sim.kernel import _NO_ARG, SimulationError

    spec = {
        "SimulationError": SimulationError,
        "NO_ARG": _NO_ARG,
        "Context": Context,
        **{state.name: state for state in ContextState},
        "Waiter": _Waiter,
        "Mshr": Mshr,
        "BlockData": BlockData,
        "THINK": ops.THINK,
        "LOAD": ops.LOAD,
        "STORE": ops.STORE,
        "RMW": ops.RMW,
        "FENCE": ops.FENCE,
        "SWITCH_HINT": ops.SWITCH_HINT,
        "BURST": ops.BURST,
        "SPIN": ops.SPIN,
        "GE": ops.GE,
        "EQ": ops.EQ,
        "spin_satisfied": ops.spin_satisfied,
        "Op": Op,
        "OP_NAMES": OP_NAMES,
        "OP_BY_NAME": OP_BY_NAME,
        "DATA_BEARING": _DATA_BEARING,
        "LAST_CACHE_TO_MEMORY": int(_LAST_CACHE_TO_MEMORY),
        "Packet": Packet,
        "NetworkStats": NetworkStats,
        "protocol_packet": protocol_packet,
        # the order of _native.c's D_* enum
        "DIR_STATES": (
            int(DirState.READ_ONLY),
            int(DirState.READ_WRITE),
            int(DirState.READ_TRANSACTION),
            int(DirState.WRITE_TRANSACTION),
        ),
        "TRAP_ON_WRITE": int(MetaState.TRAP_ON_WRITE),
        "WRITE_CLASS": tuple(int(op) for op in dc._WRITE_CLASS),
    }
    try:
        _native.setup(spec)
        NativeSimulator()  # every Core attribute the wrapper drives exists
    except (KeyError, TypeError, AttributeError) as exc:
        _stale(exc)
        return
    try:
        source = Path(__file__).with_name("_native.c").read_bytes()
    except OSError:
        pass
    else:
        digest = hashlib.sha256(source).hexdigest()
        built = getattr(_native, "SOURCE_SHA256", None) or "unstamped"
        if built != digest:
            _stale(f"source hash {digest[:12]}, built from {built[:12]}")


def _core_property(name):
    # attrgetter walks the dotted path entirely in C — ``sim.now`` reads
    # are hot in the remaining Python protocol code, so the getter must
    # not cost a Python frame.  Sets (checkpoint restore, test pokes)
    # are cold and keep the plain closure.
    fget = operator.attrgetter(f"_core.{name}")

    def fset(self, value):
        setattr(self._core, name, value)

    return property(fget, fset)


class NativeSimulator(Simulator):
    """The reference kernel's interface over the compiled event core.

    The scalar state (``now``, sequence counter) is stored in the
    :class:`_native.Core` and exposed through settable properties, so
    every external poke that works on ``Simulator`` (checkpoint digests,
    modelcheck queue clears) works unchanged here.  The heap is the real
    ``_queue`` list; the core's 64-cycle scheduling ring (which generalizes
    the reference kernel's same-cycle lane) is an array of C structs
    inside the core, spilled into the heap whenever a run returns, so
    between runs this *is* the reference kernel's queue.
    ``run``/``run_until``/``post``/``post_after`` are shadowed
    per-instance by the core's compiled methods; ``step`` is inherited.
    """

    def __init__(self, *, max_cycles: int | None = None) -> None:
        _ensure_setup()
        if _native is None:
            raise RuntimeError(f"native extension unavailable: {_IMPORT_ERROR}")
        core = _native.Core()
        self._core = core
        core.bind(self)
        super().__init__(max_cycles=max_cycles)
        # Builtin methods are not descriptors: install the core's bound
        # methods as instance attributes so self.post(...) is one C call.
        self.post = core.post
        self.post_after = core.post_after
        self.run = core.run
        self.run_until = core.run_until

    now = _core_property("now")
    _seq = _core_property("seq")
    events_executed = _core_property("executed")
    _running = _core_property("running")

    @property
    def _queue(self):
        return self._core.queue

    @_queue.setter
    def _queue(self, value):
        # The heap list's identity is fixed (the core walks it in C);
        # assignment replaces the contents, matching list semantics for
        # every existing caller (``__init__`` assigns ``[]``).
        queue = self._core.queue
        queue[:] = value

    # Between runs the ring is empty and these are the reference reads of
    # the heap.  A callback asking mid-run (nothing in the package does)
    # has the ring spilled into the heap first, where the read can see
    # it; the run carries on from the heap in the same (time, seq) order.

    def next_event_time(self) -> int | None:
        self._core.flush_ring()
        return super().next_event_time()

    @property
    def pending_events(self) -> int:
        self._core.flush_ring()
        return len(self._core.queue)


def _step_kernel(processor, core):
    """The compiled ``_step`` for ``processor``, or ``None``.

    The kernel reads the SoA columns and posts hit completions straight
    into the ring, so it exists only for ``memory_model="sc"`` over a
    :class:`SoaCacheArray` with a hit latency the ring can hold; any
    other processor (``wo``, a rig) keeps the reference step whole.  The
    same object carries the cache side of a miss transaction — the issue
    that follows a failed tag check, and (through the node's ``RxChain``)
    the fill and the invalidate — in its common case; the
    ``Processor``/``CacheController`` methods stay the definition and
    take every other case, counted by reason in ``StepKernel.handbacks``.
    """
    cache = processor.cache
    backing = cache.array
    if not (
        processor.memory_model == "sc"
        and isinstance(backing, SoaCacheArray)
        and cache.hit_latency < _RING
    ):
        return None
    space = processor.space
    kinds = ("load", "store", "rmw")
    return _native.StepKernel(
        {
            "core": core,
            "proc": processor,
            "tags": backing._tags,
            "states": backing._states,
            "written": backing._written,
            "slab": backing._slab,
            "wpb": backing._words_per_block,
            "shift": backing._block_shift,
            "imask": backing._index_mask,
            "block_mask": ~(space.block_bytes - 1),
            "low_mask": space.block_bytes - 1,
            "latency": cache.hit_latency,
            "cache_slots": cache._slots,
            # the order of _native.c's CS_* and PS_* enums
            "cache_slot_ids": (
                *(cc._HIT_SLOT[kind] for kind in kinds),
                *(cc._MISS_SLOT[kind] for kind in kinds),
                cc._UPGRADES_SLOT,
                cc._FILLS_SLOT,
                cc._INV_RECEIVED_SLOT,
                cc._LOCAL_REQ_SLOT,
                cc._REMOTE_REQ_SLOT,
            ),
            "proc_slots": processor._slots,
            "proc_slot_ids": (
                pp._THINK_SLOT,
                pp._REMOTE_STALL_SLOT,
                pp._LOCAL_STALL_SLOT,
            ),
            "issue": processor._issue,
            "park": processor._park,
            "retire": processor._retire,
            "execute_op": processor._execute_op,
            "find_work": processor._find_work,
            "mem_done": processor._mem_done,
            # the cache side of a miss
            "cache": cache,
            "cache_access": cache.access,
            "nic": cache.nic,
            "net": cache.nic.network,
            "pool": cache.pool,
            "node_id": processor.node_id,
            "seg_shift": space.segment_shift,
            "n_nodes": space.n_nodes,
        }
    )


def wormhole_network(sim, topology, **latencies) -> WormholeNetwork:
    """A :class:`WormholeNetwork` whose ``send`` is the compiled kernel."""
    net = WormholeNetwork(sim, topology, **latencies)
    if _native is not None and isinstance(sim, NativeSimulator):
        net.send = _native.NetSend(
            {
                "core": sim._core,
                "net": net,
                "stats": net.stats,
                "per_opcode": net.stats.per_opcode,
                "handlers": net._handlers,
                "route_cache": net._route_cache,
                "intern_route": net._intern_route,
                "link_free_at": net._link_free_at,
                "link_busy": net._link_busy,
                "hop_latency": net.hop_latency,
                "cycles_per_word": net.cycles_per_word,
                "injection_latency": net.injection_latency,
            }
        )
    return net


if _native is not None:

    class NativePacketPool(_native.Pool):
        """Compiled free-list allocator, drop-in for ``PacketPool``.

        ``protocol``/``release`` (the per-packet hot pair) are C; the
        cold ``clone`` path (fault-injector dup) stays Python.
        """

        def clone(self, packet):
            dup = self.protocol(
                packet.src,
                packet.dst,
                packet.opcode,
                packet.address,
                data=packet.data.copy() if packet.data is not None else None,
                **packet.meta,
            )
            dup.sent_at = packet.sent_at
            dup.crc = packet.crc
            return dup


def _cell(owner, method, *inlined):
    return owner, getattr(owner, method), inlined


_BASE = dc.MemoryController
_WRITE_DONE = ("_maybe_complete_write", "_send_wdata", "_stray")
_READ_DONE = ("_complete_read", "_send_rdata", "_stray")

#: What each compiled Table-2 cell (keyed like ``_native.DIR_CELLS``)
#: mirrors: the class, its method, and the other controller methods the
#: mirror folds in.  A cell runs in C only on a controller for which the
#: method and all of these are exactly what that class itself would run;
#: a variant that overrides any of them keeps the cell in Python.
_CELLS = {
    "_ro_rreq": _cell(_BASE, "_ro_rreq", "_pointer_available", "_send_rdata"),
    "_ro_wreq": _cell(
        _BASE, "_ro_wreq",
        "_begin_write_transaction", "_send_wdata", "_send_inv", "_arm_inv_timer",
    ),
    "_rw_rreq": _cell(_BASE, "_rw_rreq", "_rw_owner", "_send_inv", "_arm_inv_timer"),
    "_rw_wreq": _cell(
        _BASE, "_rw_wreq", "_rw_owner", "_send_wdata", "_send_inv", "_arm_inv_timer"
    ),
    "_rw_repm": _cell(_BASE, "_rw_repm", "_rw_owner", "_stray"),
    "_rw_stray": _cell(_BASE, "_rw_stray", "_rw_owner", "_stray"),
    "_stray": _cell(_BASE, "_stray"),
    "_txn_busy": _cell(_BASE, "_txn_busy", "_send_busy"),
    "_wt_ackc": _cell(_BASE, "_wt_ackc", *_WRITE_DONE),
    "_wt_update": _cell(_BASE, "_wt_update", *_WRITE_DONE),
    "_wt_repm": _cell(_BASE, "_wt_repm", *_WRITE_DONE),
    "_rt_update": _cell(_BASE, "_rt_update", *_READ_DONE),
    "_rt_repm": _cell(_BASE, "_rt_repm", *_READ_DONE),
    "_rt_ackc": _cell(_BASE, "_rt_ackc", "_stray"),
    # Dir_iNB's read: the base cell inside the fifo bookkeeping, and on
    # overflow its eviction
    "limited._ro_rreq": _cell(
        LimitedController, "_ro_rreq",
        "_pointer_available", "_send_rdata", "_read_overflow", "_choose_victim",
        "_send_inv",
    ),
}


def _cell_codes(ctrl, class_cells: dict) -> tuple:
    """``_native.c``'s cell code for each ``_table[state][op]``, row-major;
    0 where the handler is not a method the C mirrors.

    ``class_cells`` memoizes the half of the answer that depends only on
    the controller's class — which cells' helpers are the mirrored ones —
    across the (identical) controllers of one machine.
    """
    cls = type(ctrl)
    cells = class_cells.get(cls)
    if cells is None:
        cells = class_cells[cls] = [
            (function, code, inlined)
            for code, name in enumerate(_native.DIR_CELLS.split(), 1)
            for owner, function, inlined in [_CELLS[name]]
            if issubclass(cls, owner)
            and all(getattr(cls, helper) is getattr(owner, helper) for helper in inlined)
        ]
    shadowed = vars(ctrl)
    code_of = {
        function: code
        for function, code, inlined in cells
        if not any(helper in shadowed for helper in inlined)
    }
    return tuple(
        code_of.get(getattr(handler, "__func__", None), 0)
        if getattr(handler, "__self__", None) is ctrl
        else 0
        for row in ctrl._table
        for handler in row
    )


def install_dir_kernel(ctrl, class_cells: Optional[dict] = None):
    """Shadow ``ctrl.receive``/``ctrl.process`` with a compiled
    :class:`_native.DirKernel`; returns it, or ``None`` when none applies.
    (``class_cells``: a dict shared by the installs of one machine, see
    :func:`_cell_codes`.)

    The kernel mirrors ``MemoryController.receive`` and ``process`` and
    the cells of ``_CELLS`` over the ``SoaDirectory`` columns, so it exists
    only for a controller that runs exactly those: the pipeline methods
    not overridden (approx, trap_always), the reference memory, counters
    and occupancy objects, no invalidation timers (``inv_timeout``, the
    fault-tolerant machines), and at most 64 nodes — pointer masks are
    read as ``uint64``; a wider machine keeps the Python pipeline.  The
    bound reference methods are kept for per-packet hand-backs (counted
    by reason in ``DirKernel.handbacks``), and because ``process`` is
    shadowed on the instance, ``replay_pending`` and the FIFO-lock drain
    post the compiled one too.
    """
    cls = type(ctrl)
    directory, memory, counters = ctrl.directory, ctrl.memory, ctrl.counters
    table = getattr(ctrl, "_table", None)
    if not (
        _native is not None
        and all(
            getattr(cls, name) is getattr(_BASE, name)
            for name in ("receive", "process", "dispatch", "_meta_intercept")
        )
        and isinstance(ctrl.sim, NativeSimulator)
        and type(directory) is SoaDirectory
        and directory.home == ctrl.node_id
        and type(memory) is MainMemory
        and type(counters) is Counters
        and type(ctrl.occupancy) is StallableResource
        and not ctrl.inv_timeout
        and ctrl.space.n_nodes <= 64
        and isinstance(table, list)
        and len(table) == len(DirState)
        and all(isinstance(row, list) and len(row) == N_OPS for row in table)
    ):
        return None
    space = ctrl.space
    kernel = _native.DirKernel(
        {
            "core": ctrl.sim._core,
            "ctrl": ctrl,
            "process": ctrl.process,
            "receive": ctrl.receive,
            "directory": directory,
            "rows": directory._rows,
            "state": directory._state,
            "meta": directory._meta,
            "local": directory._local,
            "requester": directory._requester,
            "txn": directory._txn,
            "peak": directory._peak,
            "sharers": directory._sharers,
            "acks": directory._acks,
            "table": table,
            "cells": tuple(handler for row in table for handler in row),
            "codes": _cell_codes(ctrl, {} if class_cells is None else class_cells),
            "n_ops": N_OPS,
            "slots": ctrl._slots,
            "packets_slot": dc._DIR_PACKETS_SLOT,
            "values": counters._values,
            "memory": memory,
            "blocks": memory._blocks,
            "occupancy": ctrl.occupancy,
            "nic": ctrl.nic,
            "net": ctrl.nic.network,
            "pool": ctrl.pool,
            "node_id": ctrl.node_id,
            "stray_names": tuple(f"dir.stray.{name}" for name in OP_NAMES),
            "seg_shift": space.segment_shift,
            "n_nodes": space.n_nodes,
            "low_mask": space.block_bytes - 1,
        }
    )
    ctrl.process = kernel
    ctrl.receive = kernel.receive
    ctrl.nic.set_memory_handler(ctrl.receive)
    return kernel


def finalize(machine) -> None:
    """Install the per-node compiled kernels on the reference objects.

    Called by the machine builder after all nodes are wired.  Each
    processor's ``_step`` becomes a :class:`_native.StepKernel` (an
    instance attribute, so ``_dispatch``'s schedule, ``_mem_done``'s
    direct call and every ring event reach it) and its ``_mem_done`` the
    kernel's ``mem_done`` (so the completion callback ``add_thread``
    binds re-dispatches a context in C); each directory
    controller's ``receive`` and ``process`` become a
    :class:`_native.DirKernel` (:func:`install_dir_kernel`); and each
    node's network handler becomes an :class:`_native.RxChain` (NIC
    classify + cache dispatch + pool release in one C frame; with the
    node's ``StepKernel`` it also runs RDATA/WDATA fills and INVs, and
    its memory handler is the ``DirKernel``'s receive).
    """
    if _native is None or not isinstance(machine.sim, NativeSimulator):
        return
    core = machine.sim._core
    handlers = machine.network._handlers
    class_cells: dict = {}
    for node in machine.nodes:
        kernel = _step_kernel(node.processor, core)
        if kernel is not None:
            node.processor._step = kernel
            node.processor._mem_done = kernel.mem_done
        install_dir_kernel(node.directory_controller, class_cells)
        nic = node.nic
        handlers[node.node_id] = _native.RxChain(
            {
                "nic": nic,
                "receive": nic._receive,
                "memory_handler": nic._memory_handler,
                "cache_rx": node.cache_controller._rx,
                "pool": nic.pool,
                "divert": nic.divert_to_ipi,
                "kernel": kernel,
                "core": core,
            }
        )


def fallthroughs(machine) -> Optional[dict]:
    """What the compiled kernels handed back to Python, machine-wide.

    A dict: under ``"op"`` the ops the processor steps gave to
    ``Processor._execute_op`` (:attr:`_native.StepKernel.fallthroughs`,
    summed over the processors), plus one entry per reason a step of the
    compiled miss transaction went back to its Python method — the cache
    side's issue, fill and invalidate (``StepKernel.handbacks``:
    ``mshr_merge``, ``victim``, ``replay``, ...) and the directory's
    receive and process (``DirKernel.handbacks``: ``dir_meta``,
    ``dir_overflow``, ``dir_override``, ``dir_error``); ``fault_tolerant``,
    ``crc``, ``pool`` and ``malformed`` count steps of both sides.
    docs/BACKENDS.md has the tables.  ``None`` when no processor runs the
    compiled step (extension absent, or ``memory_model="wo"`` and other
    pairings :func:`finalize` leaves on the reference step), so an
    all-zero dict always means "never left C".
    """
    if _native is None:
        return None
    steps = [
        node.processor._step
        for node in machine.nodes
        if isinstance(node.processor._step, _native.StepKernel)
    ]
    if not steps:
        return None
    totals = {"op": sum(kernel.fallthroughs for kernel in steps)}
    directories = [
        vars(node.directory_controller).get("process") for node in machine.nodes
    ]
    for kernel in steps + [
        d for d in directories if isinstance(d, _native.DirKernel)
    ]:
        for reason, count in kernel.handbacks.items():
            totals[reason] = totals.get(reason, 0) + count
    return totals


__all__ = [
    "NativePacketPool",
    "NativeSimulator",
    "available",
    "fallthroughs",
    "finalize",
    "install_dir_kernel",
    "load_status",
    "wormhole_network",
]

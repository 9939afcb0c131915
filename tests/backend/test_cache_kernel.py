"""The cache side of a miss transaction, row by row, on every backend.

``Processor._issue`` and ``CacheController._access``/``_enqueue_miss``/
``_send_request``, ``_fill`` and ``_invalidate`` are the definition; on
``native`` their common case runs in C (``ck_issue``/``ck_fill``/
``ck_invalidate`` in ``_native.c``) and everything else is handed back
to them, counted by reason.  One case below per row of the table in
docs/BACKENDS.md ("what the compiled miss transaction executes, and
what it hands back"), each held to ``reference`` window for window by
kernel observables and open-MSHR contents, and at the end by checkpoint
digest, per-node counters, latency totals and the equivalence
fingerprint; on ``native`` the case also names the hand-back reasons it
must (and the only ones it may) produce.

The second half injects exceptions at the seams the compiled steps add
— a fill nobody asked for, a completion callback or an ``rmw`` callable
that raises, a payload word the slab cannot hold — and compares the
state at the raise and again after the surviving events drain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import pytest

from repro import backend as backends
from repro.backend import equivalence_fingerprint, native
from repro.cache.controller import _WbEntry
from repro.mem.memory import BlockData
from repro.network.packet import Op
from repro.recover.snapshot import state_digest

from .opstream import (
    BACKENDS,
    OpStreamWorkload,
    assert_crashes_like,
    kernel_state,
    make_machine,
    run_streams,
    show,
    word_address,
)

needs_extension = pytest.mark.skipif(
    not native.available(), reason="extension not built"
)

#: an aligned block address no stream touches
_ELSEWHERE = 0x7F0


def mshr_state(machine) -> list:
    """Every open MSHR, field for field (``_mshrs`` contents)."""
    return [
        (
            node.node_id,
            block,
            mshr.block,
            mshr.need_write,
            mshr.opened_at,
            mshr.retries,
            mshr.epoch,
            mshr.timeouts,
            mshr.wb_blocked,
            [
                (w.kind, w.addr, show(w.payload), w.issued_at)
                for w in mshr.waiters
            ],
        )
        for node in machine.nodes
        for block, mshr in node.cache_controller._mshrs.items()
    ]


def final_state(machine, stats) -> dict:
    """What the run left behind, beyond the windowed trace."""
    return {
        "digest": state_digest(machine),
        "fingerprint": equivalence_fingerprint(stats),
        "counters": {n.node_id: n.counters.as_dict() for n in machine.nodes},
        "latency": [
            (
                n.cache_controller.miss_latency_total,
                n.cache_controller.miss_latency_count,
                n.cache_controller.latency_hist.as_sorted_items(),
            )
            for n in machine.nodes
        ],
        "nic": [(n.nic.packets_sent, n.nic.packets_received) for n in machine.nodes],
        "pool": (machine.pool.allocated, machine.pool.recycled),
        "lines": [
            sorted(
                (line.block, int(line.state), list(line.data.words), line.written)
                for line in n.cache_array.valid_lines()
            )
            for n in machine.nodes
        ],
    }


@dataclass
class Case:
    """One row: a program, the machine it runs on, and what native may
    hand back while running it."""

    name: str
    streams: dict
    #: hand-back reasons that must be non-zero on native; all others 0
    reasons: frozenset = frozenset()
    #: counters that must be non-zero somewhere (the row really happened)
    witness: tuple = ()
    overrides: dict = field(default_factory=dict)
    poke: object = None
    #: undo a poke the end-of-run audit would object to
    unpoke: object = None


def run_case(case: Case, backend: str, window: int = 16):
    machine = make_machine(backend, **case.overrides)
    trace: list = []

    def driver(m):
        if case.poke is not None:
            case.poke(m)
        sim = m.sim
        while sim.pending_events:
            sim.run_until(sim.now + window)
            trace.append((kernel_state(m), mshr_state(m)))
        if case.unpoke is not None:
            case.unpoke(m)

    stats = machine.run(OpStreamWorkload(case.streams), driver=driver)
    return trace, final_state(machine, stats), machine


def _idle(*procs):
    return {p: [[("think", 1)]] for p in procs}


def _poke_caches(**attrs):
    def poke(machine):
        for node in machine.nodes:
            for name, value in attrs.items():
                setattr(node.cache_controller, name, value)

    return poke


def _poke_crc(machine):
    for node in machine.nodes:
        node.nic.crc_enabled = True


def _poke_update_block(machine):
    for node in machine.nodes:
        node.cache_controller.update_blocks.add(_ELSEWHERE)


def _poke_wb_buffer(machine):
    for node in machine.nodes:
        node.cache_controller._wb_buffer[_ELSEWHERE] = _WbEntry(
            BlockData(4), Op.REPM, None
        )


def _clear_wb_buffer(machine):
    for node in machine.nodes:
        node.cache_controller._wb_buffer.clear()


#: misses, an upgrade, an atomic, fills and invalidations of shared and
#: dirty copies, spread over all four processors: the traffic every
#: whole-fallback row must carry in Python exactly as C carries it
_MIXED = {
    0: [[("load", 1), ("store", 1, 7), ("add", 2, 1), ("load", 0), ("think", 90), ("load", 1)]],
    1: [[("think", 40), ("load", 1), ("store", 3, 5), ("think", 60), ("store", 1, 9)]],
    2: [[("think", 20), ("add", 2, 2), ("load", 3), ("think", 80), ("load", 1)]],
    3: [[("load", 3), ("think", 120), ("load", 2), ("store", 3, 1)]],
}

#: with ``cache_lines=4`` words 1 and 4 share a slot, as do 2 and 5
_SMALL = {"cache_lines": 4}

CASES = [
    # -- issue ----------------------------------------------------------
    Case("load_miss_remote_home", {0: [[("load", 1)]], **_idle(1, 2, 3)},
         witness=("cache.misses.load", "cache.remote_requests", "cpu.remote_stalls")),
    Case("load_miss_local_home", {0: [[("load", 0)]], **_idle(1, 2, 3)},
         witness=("cache.misses.load", "cache.local_requests", "cpu.local_stalls")),
    Case("store_miss", {0: [[("store", 1, 5), ("load", 1)]], **_idle(1, 2, 3)},
         witness=("cache.misses.store",)),
    Case("store_to_shared_upgrade",
         {0: [[("load", 1), ("think", 3), ("store", 1, 5)]], **_idle(1, 2, 3)},
         witness=("cache.upgrades",)),
    Case("rmw_miss", {0: [[("add", 2, 3), ("add", 2, 4)]], **_idle(1, 2, 3)},
         witness=("cache.misses.rmw", "cache.hits.rmw")),
    Case("second_context_joins_an_open_mshr",
         {0: [[("load", 1)], [("load", 1)], [("load", 1), ("think", 2)]], **_idle(1, 2, 3)},
         reasons=frozenset({"mshr_merge"}), witness=("cpu.context_switches",)),
    # -- fill -----------------------------------------------------------
    Case("fill_replays_one_waiter", {0: [[("load", 2), ("load", 2)]], **_idle(1, 2, 3)},
         witness=("cache.fills", "cache.hits.load")),
    Case("fill_replays_several_waiters",
         {0: [[("add", 1, 1)], [("add", 1, 2)], [("load", 1)]], **_idle(1, 2, 3)},
         reasons=frozenset({"mshr_merge"}), witness=("cache.hits.rmw", "cache.hits.load")),
    Case("read_fill_reopens_an_upgrade",
         {0: [[("load", 1)], [("store", 1, 5)]], **_idle(1, 2, 3)},
         reasons=frozenset({"mshr_merge", "replay"}),
         witness=("cache.read_write_merge", "cache.upgrades")),
    Case("conflict_victim_clean",
         {0: [[("load", 1), ("load", 4), ("load", 1)]], **_idle(1, 2, 3)},
         reasons=frozenset({"victim"}), witness=("cache.evict_ro",), overrides=_SMALL),
    Case("conflict_victim_dirty",
         {0: [[("store", 1, 5), ("load", 4), ("load", 1)]], **_idle(1, 2, 3)},
         reasons=frozenset({"victim"}), witness=("cache.evict_rw",), overrides=_SMALL),
    # -- invalidate -----------------------------------------------------
    Case("inv_of_a_shared_line",
         {1: [[("load", 0), ("think", 200), ("load", 0)]],
          2: [[("think", 100), ("store", 0, 4)]], **_idle(0, 3)},
         witness=("cache.inv_received", "dir.invalidations")),
    Case("inv_of_a_dirty_line",
         {1: [[("store", 0, 9), ("think", 200), ("load", 0)]],
          2: [[("think", 100), ("load", 0)]], **_idle(0, 3)},
         witness=("cache.inv_received",)),
    Case("inv_of_an_absent_line",
         {1: [[("load", 1), ("load", 4)]],
          2: [[("think", 200), ("store", 1, 4)]], **_idle(0, 3)},
         reasons=frozenset({"victim"}), witness=("cache.inv_received", "cache.evict_ro"),
         overrides=_SMALL),
    # -- whole fallbacks ------------------------------------------------
    Case("fallback_fault_tolerant", _MIXED,
         reasons=frozenset({"fault_tolerant", "crc"}),
         overrides={"fault_delay_rate": 1e-12}),
    Case("fallback_request_timeout", _MIXED, reasons=frozenset({"request_timeout"}),
         poke=_poke_caches(request_timeout=500_000)),
    Case("fallback_crc", _MIXED, reasons=frozenset({"crc"}), poke=_poke_crc),
    Case("fallback_update_block", _MIXED, reasons=frozenset({"update_block"}),
         poke=_poke_update_block),
    Case("fallback_wb_buffer", _MIXED, reasons=frozenset({"wb_buffer"}),
         poke=_poke_wb_buffer, unpoke=_clear_wb_buffer),
    Case("fallback_ideal_fabric", _MIXED, reasons=frozenset({"fabric"}),
         overrides={"topology": "ideal"}),
    Case("mixed_traffic_stays_compiled", _MIXED,
         witness=("cache.fills", "cache.inv_received", "cache.upgrades")),
    # the gate reads a flag as Python's ``if`` does: a falsy int is off
    Case("int_zero_flags_stay_compiled", _MIXED,
         poke=lambda m: (_poke_caches(fault_tolerant=0, request_timeout=False)(m),
                         [setattr(n.nic, "crc_enabled", 0) for n in m.nodes])),
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_row_matches_reference_on_every_backend(case):
    ref_trace, ref_final, ref_machine = run_case(case, "reference")
    total = {}
    for counters in ref_final["counters"].values():
        for name, count in counters.items():
            total[name] = total.get(name, 0) + count
    for name in case.witness:
        assert total.get(name), f"{case.name} never reached {name}"
    for backend in BACKENDS[1:]:
        trace, final, machine = run_case(case, backend)
        assert trace == ref_trace, backend
        assert final == ref_final, backend
        if backend == "native" and native.available():
            handed = native.fallthroughs(machine)
            assert handed.pop("op") == 0
            nonzero = {reason for reason, count in handed.items() if count}
            assert nonzero == set(case.reasons), handed


@needs_extension
def test_a_wo_machine_keeps_the_whole_cache_side_in_python():
    case = Case("wo", _MIXED, overrides={"memory_model": "wo"})
    ref_trace, ref_final, _ = run_case(case, "reference")
    trace, final, machine = run_case(case, "native")
    assert (trace, final) == (ref_trace, ref_final)
    assert native.fallthroughs(machine) is None


@needs_extension
def test_a_python_packet_pool_hands_every_step_back_as_pool(monkeypatch):
    plain = replace(backends.get_backend("native"), make_pool=None)
    monkeypatch.setitem(backends._INSTANCES, "native", plain)
    case = Case("pool", _MIXED)
    ref_trace, ref_final, _ = run_case(case, "reference")
    trace, final, machine = run_case(case, "native")
    assert (trace, final) == (ref_trace, ref_final)
    handed = native.fallthroughs(machine)
    assert {reason for reason, n in handed.items() if n} == {"pool"}


@needs_extension
def test_an_emptied_network_is_malformed_not_fabric():
    """What ``dismantle()`` leaves: Python raises, and the counter says
    the machine was broken, not that its fabric's send was Python."""

    def run(backend):
        machine = make_machine(backend)

        def driver(m):
            vars(m.network).clear()
            m.sim.run()

        with pytest.raises(AttributeError) as raised:
            machine.run(
                OpStreamWorkload({0: [[("load", 1)]], **_idle(1, 2, 3)}),
                driver=driver,
            )
        return str(raised.value).split("object")[1], machine

    message, machine = run("native")
    assert message == run("reference")[0]
    handed = native.fallthroughs(machine)
    assert {reason for reason, n in handed.items() if n} == {"malformed"}


@needs_extension
def test_a_rebound_receive_slot_is_called_not_compiled():
    seen = []
    machine = make_machine("native")
    cache = machine.nodes[0].cache_controller
    original = cache._rx[Op.RDATA]

    def spy(packet):
        seen.append(packet.address)
        original(packet)

    cache._rx[Op.RDATA] = spy
    machine.run(OpStreamWorkload({0: [[("load", 1)]], **_idle(1, 2, 3)}))
    assert len(seen) == 1
    assert not any(native.fallthroughs(machine).values())


# ----------------------------------------------------------------------
# Exceptions at the new seams
# ----------------------------------------------------------------------


class Boom(Exception):
    pass


_NEIGHBOURS = {
    proc: [[("store", proc, proc), ("load", 0), ("think", 70), ("add", 2, 1)]]
    for proc in (1, 2, 3)
}


def test_malformed_address_raises_what_the_reference_issue_raises():
    streams = {0: [[("think", 2), ("raw", ("load", 1 << 40))]], **_NEIGHBOURS}
    reference = assert_crashes_like("reference", streams)
    assert reference["error"][0] is ValueError
    assert "outside shared memory" in reference["error"][1]


def test_fill_without_an_mshr_raises_on_every_backend():
    def stray_fill(machine):
        node = machine.nodes[0]
        machine.sim.post(
            5,
            machine.network._handlers[0],
            node.pool.protocol(1, 0, Op.RDATA, 0x40, data=BlockData(4)),
        )

    streams = {0: [[("think", 30)]], **_NEIGHBOURS}
    reference = assert_crashes_like("reference", streams, poke=stray_fill)
    assert reference["error"][0] is RuntimeError
    assert "fill without MSHR" in reference["error"][1]


def test_waiter_callback_raising_after_a_compiled_fill():
    """A completion the fill posted raises when its event runs."""

    def explode(_value):
        raise Boom("callback")

    def issue(machine):
        machine.nodes[0].cache_controller.access(
            "load", word_address(machine, 1), None, explode
        )

    streams = {0: [[("think", 90)]], **_NEIGHBOURS}
    reference = assert_crashes_like("reference", streams, poke=issue)
    assert reference["error"] == (Boom, "callback")


@pytest.mark.parametrize("waiters", [1, 2])
def test_rmw_callable_raising_mid_replay(waiters):
    """The callable runs inside the fill, between two waiters' replays."""

    def explode(_old):
        raise Boom("rmw")

    contexts = [[("rmw", 1, explode)], [("load", 1), ("think", 5)]][:waiters]
    streams = {0: contexts, **_NEIGHBOURS}
    reference = assert_crashes_like("reference", streams)
    assert reference["error"] == (Boom, "rmw")


def test_a_word_outside_int64_is_refused_at_install():
    """The slab cannot hold it (``reference`` keeps plain lists and can):
    ``native`` must leave exactly what the ``soa`` install leaves — or,
    on its reference fallback, hold the word as ``reference`` does."""

    def poison(machine):  # word 5: homed on node 1, nobody else's business
        machine.nodes[1].memory.poke_word(word_address(machine, 5), 1 << 70)

    streams = {0: [[("think", 3), ("load", 5)]], **_NEIGHBOURS}
    columns = ("native",) if native.available() else ()
    soa = assert_crashes_like("soa", streams, backends=columns, poke=poison)
    assert soa["error"][0] is OverflowError
    for name in sorted({"reference", "native"} - set(columns)):
        run_streams(make_machine(name), streams, poison)  # does not raise

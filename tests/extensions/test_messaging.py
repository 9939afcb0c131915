"""Tests for IPI interprocessor messaging (§4.2)."""

from __future__ import annotations

import pytest

from repro.extensions import open_mailboxes, send_message
from repro.machine import AlewifeConfig, AlewifeMachine
from repro.proc import ops
from repro.workloads.base import Workload


def make_machine(protocol="limitless", **overrides):
    defaults = dict(
        n_procs=4,
        protocol=protocol,
        pointers=2,
        ts=30,
        cache_lines=256,
        segment_bytes=1 << 16,
        max_cycles=2_000_000,
    )
    defaults.update(overrides)
    return AlewifeMachine(AlewifeConfig(**defaults))


class _IdleWorkload(Workload):
    """Processors just think, leaving room for messages to interrupt."""

    name = "idle"

    def build(self, machine):
        def program(p):
            yield ops.think(600)

        return {p: [program(p)] for p in range(machine.config.n_procs)}


def run_with_messages(machine, sends):
    mailboxes = open_mailboxes(machine)
    programs = _IdleWorkload().build(machine)
    for proc_id, gens in programs.items():
        for gen in gens:
            machine.nodes[proc_id].processor.add_thread(gen)
    for node in machine.nodes:
        node.start()
    for at, kwargs in sends:
        machine.sim.post(at, lambda kw=kwargs: send_message(machine, **kw))
    machine.sim.run()
    return mailboxes


class TestMessaging:
    @pytest.mark.parametrize("protocol", ["limitless", "fullmap", "trap_always"])
    def test_message_delivered(self, protocol):
        machine = make_machine(protocol=protocol)
        mailboxes = run_with_messages(
            machine, [(10, dict(src=0, dst=2, tag=7))]
        )
        assert len(mailboxes[2].messages) == 1
        message = mailboxes[2].messages[0]
        assert message.src == 0
        assert message.meta["tag"] == 7

    def test_block_transfer_stores_back(self):
        machine = make_machine()
        target = machine.allocator.alloc_words("msg.buf", 4, home=3)
        mailboxes = run_with_messages(
            machine,
            [
                (
                    10,
                    dict(
                        src=1,
                        dst=3,
                        payload_words=[11, 22, 33, 44],
                        store_to=target.base,
                    ),
                )
            ],
        )
        assert mailboxes[3].messages[0].data_words == [11, 22, 33, 44]
        assert machine.nodes[3].memory.peek_word(target.word(2)) == 33

    def test_store_to_must_be_homed_at_receiver(self):
        machine = make_machine()
        target = machine.allocator.alloc_words("msg.buf", 4, home=1)
        with pytest.raises(ValueError):
            send_message(
                machine, src=0, dst=3, payload_words=[1], store_to=target.base
            )

    def test_payload_bounded_by_block(self):
        machine = make_machine()
        with pytest.raises(ValueError):
            send_message(machine, src=0, dst=1, payload_words=list(range(20)))

    def test_messages_charge_receiver_trap_time(self):
        machine = make_machine(protocol="fullmap")
        run_with_messages(
            machine,
            [(10 + i, dict(src=0, dst=1)) for i in range(4)],
        )
        assert machine.nodes[1].processor.traps_taken == 4
        assert machine.nodes[1].processor.trap_cycles == 100

    def test_callback_fires(self):
        machine = make_machine()
        mailboxes = open_mailboxes(machine)
        got = []
        mailboxes[2].on_message = lambda m: got.append(m.src)
        programs = _IdleWorkload().build(machine)
        for proc_id, gens in programs.items():
            for gen in gens:
                machine.nodes[proc_id].processor.add_thread(gen)
        for node in machine.nodes:
            node.start()
        machine.sim.post(5, lambda: send_message(machine, src=3, dst=2))
        machine.sim.run()
        assert got == [3]

    def test_coexists_with_coherence_traffic(self):
        """Messages and protocol packets share the NIC without interfering."""
        machine = make_machine()
        mailboxes = open_mailboxes(machine)
        shared = machine.allocator.alloc_scalar("msg.shared", home=0)

        class Mixed(Workload):
            name = "mixed"

            def build(self, m):
                def program(p):
                    for i in range(4):
                        yield ops.fetch_add(shared.base, 1)
                        yield ops.think(30)

                return {p: [program(p)] for p in range(m.config.n_procs)}

        programs = Mixed().build(machine)
        for proc_id, gens in programs.items():
            for gen in gens:
                machine.nodes[proc_id].processor.add_thread(gen)
        for node in machine.nodes:
            node.start()
        for i in range(6):
            machine.sim.post(
                20 * i + 5, lambda i=i: send_message(machine, src=i % 4, dst=0, n=i)
            )
        machine.sim.run()
        assert len(mailboxes[0].messages) == 6
        value = machine.nodes[0].memory.peek_word(shared.base)
        blk = machine.space.block_of(shared.base)
        for node in machine.nodes:
            line = node.cache_array.lookup(blk)
            if line is not None and line.state.name == "READ_WRITE":
                value = line.data.words[machine.space.word_in_block(shared.base)]
        assert value == 16

"""Tests for the IPI network interface."""

from __future__ import annotations

import pytest

from repro.network.fabric import IdealNetwork
from repro.network.interface import IpiQueueOverflow, NetworkInterface
from repro.network.packet import Op, interrupt_packet, protocol_packet


def make_pair(sim, capacity=4):
    net = IdealNetwork(sim, 2, latency=3)
    nic0 = NetworkInterface(sim, 0, net, ipi_capacity=capacity)
    nic1 = NetworkInterface(sim, 1, net, ipi_capacity=capacity)
    return net, nic0, nic1


class TestDispatch:
    def test_cache_to_memory_opcodes_reach_memory_handler(self, sim):
        _, nic0, nic1 = make_pair(sim)
        got = []
        nic1.set_memory_handler(got.append)
        nic1.set_cache_handler(lambda p: pytest.fail("wrong handler"))
        sim.post(0, lambda: nic0.send(protocol_packet(0, 1, "RREQ", 0)))
        sim.run()
        assert got and got[0].opcode is Op.RREQ

    def test_memory_to_cache_opcodes_reach_cache_handler(self, sim):
        _, nic0, nic1 = make_pair(sim)
        got = []
        nic1.set_cache_handler(got.append)
        nic1.set_memory_handler(lambda p: pytest.fail("wrong handler"))
        sim.post(0, lambda: nic0.send(protocol_packet(0, 1, "INV", 0)))
        sim.run()
        assert got and got[0].opcode is Op.INV

    def test_missing_handler_raises(self, sim):
        _, nic0, _nic1 = make_pair(sim)
        sim.post(0, lambda: nic0.send(protocol_packet(0, 1, "RREQ", 0)))
        with pytest.raises(RuntimeError):
            sim.run()

    def test_counters(self, sim):
        _, nic0, nic1 = make_pair(sim)
        nic1.set_memory_handler(lambda p: None)
        sim.post(0, lambda: nic0.send(protocol_packet(0, 1, "RREQ", 0)))
        sim.run()
        assert nic0.packets_sent == 1
        assert nic1.packets_received == 1


class TestIpiQueue:
    def test_interrupt_packets_enter_ipi_queue(self, sim):
        _, nic0, nic1 = make_pair(sim)
        sim.post(0, lambda: nic0.send(interrupt_packet(0, 1, "IPI", n=1)))
        sim.run()
        assert nic1.ipi_pending() == 1
        assert nic1.ipi_head().opcode == "IPI"

    def test_trap_handler_fires_on_enqueue(self, sim):
        _, nic0, nic1 = make_pair(sim)
        fired = []
        nic1.set_trap_handler(lambda: fired.append(sim.now))
        sim.post(0, lambda: nic0.send(interrupt_packet(0, 1, "IPI")))
        sim.run()
        assert len(fired) == 1

    def test_divert_places_protocol_packet_in_queue(self, sim):
        _, _nic0, nic1 = make_pair(sim)
        pkt = protocol_packet(0, 1, "RREQ", 0x40)
        nic1.divert_to_ipi(pkt)
        assert nic1.ipi_pop() is pkt
        assert nic1.ipi_pending() == 0

    def test_pop_empty_raises(self, sim):
        _, _, nic1 = make_pair(sim)
        with pytest.raises(RuntimeError):
            nic1.ipi_pop()

    def test_fifo_order(self, sim):
        _, _, nic1 = make_pair(sim)
        for i in range(3):
            nic1.divert_to_ipi(protocol_packet(0, 1, "RREQ", i * 16))
        assert [nic1.ipi_pop().address for _ in range(3)] == [0, 16, 32]

    def test_capacity_overflow_raises(self, sim):
        _, _, nic1 = make_pair(sim, capacity=2)
        nic1.divert_to_ipi(protocol_packet(0, 1, "RREQ", 0))
        nic1.divert_to_ipi(protocol_packet(0, 1, "RREQ", 16))
        with pytest.raises(IpiQueueOverflow):
            nic1.divert_to_ipi(protocol_packet(0, 1, "RREQ", 32))

    def test_high_water_mark(self, sim):
        _, _, nic1 = make_pair(sim)
        nic1.divert_to_ipi(protocol_packet(0, 1, "RREQ", 0))
        nic1.divert_to_ipi(protocol_packet(0, 1, "RREQ", 16))
        nic1.ipi_pop()
        assert nic1.ipi_high_water == 2
        assert nic1.ipi_enqueued == 2

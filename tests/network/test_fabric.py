"""Tests for the network fabric: latency, contention, ordering."""

from __future__ import annotations

import pytest

from repro.mem.memory import BlockData
from repro.network.fabric import IdealNetwork, WormholeNetwork
from repro.network.packet import Packet, protocol_packet
from repro.network.topology import Mesh2D


def make_net(sim, width=4):
    return WormholeNetwork(sim, Mesh2D(width, width))


def attach_recorder(net, node_id, log):
    net.attach(node_id, lambda p: log.append((net.sim.now, p)))


class TestWormholeDelivery:
    def test_packet_arrives(self, sim):
        net = make_net(sim)
        log = []
        attach_recorder(net, 5, log)
        sim.post(0, lambda: net.send(protocol_packet(0, 5, "RREQ", 0)))
        sim.run()
        assert len(log) == 1
        assert str(log[0][1].opcode) == "RREQ"

    def test_latency_grows_with_distance(self, sim):
        net = make_net(sim)
        far, near = [], []
        attach_recorder(net, 15, far)
        attach_recorder(net, 1, near)
        sim.post(0, lambda: net.send(protocol_packet(0, 15, "RREQ", 0)))
        sim.post(0, lambda: net.send(protocol_packet(0, 1, "RREQ", 0)))
        sim.run()
        assert far[0][0] > near[0][0]

    def test_longer_packets_take_longer(self, sim):
        net = make_net(sim)
        log = []
        attach_recorder(net, 3, log)
        data = BlockData(4)
        sim.post(0, lambda: net.send(protocol_packet(0, 3, "RREQ", 0)))
        sim.run()
        control_time = log[0][0]
        log.clear()
        sim.post(
            sim.now,
            lambda: net.send(protocol_packet(0, 3, "RDATA", 0, data=data)),
        )
        start = sim.now
        sim.run()
        assert log[0][0] - start > control_time

    def test_local_delivery_bypasses_mesh(self, sim):
        net = make_net(sim)
        log = []
        attach_recorder(net, 2, log)
        sim.post(0, lambda: net.send(protocol_packet(2, 2, "RREQ", 0)))
        sim.run()
        assert log[0][0] == 2
        assert net.link_busy_cycles == {}

    def test_contention_serializes_shared_link(self, sim):
        net = make_net(sim)
        log = []
        attach_recorder(net, 3, log)
        # Two packets from the same source share every link on the path.
        sim.post(0, lambda: net.send(protocol_packet(0, 3, "RREQ", 0)))
        sim.post(0, lambda: net.send(protocol_packet(0, 3, "RREQ", 16)))
        sim.run()
        t1, t2 = log[0][0], log[1][0]
        assert t2 > t1
        assert net.stats.contention_cycles > 0

    def test_disjoint_paths_do_not_contend(self, sim):
        net = make_net(sim)
        log = []
        attach_recorder(net, 1, log)
        attach_recorder(net, 7, log)
        sim.post(0, lambda: net.send(protocol_packet(0, 1, "RREQ", 0)))
        sim.post(0, lambda: net.send(protocol_packet(4, 7, "RREQ", 0)))
        sim.run()
        assert net.stats.contention_cycles == 0

    def test_fifo_per_pair(self, sim):
        net = make_net(sim)
        order = []
        net.attach(9, lambda p: order.append(p.meta["tag"]))
        for i in range(6):
            sim.post(i, lambda i=i: net.send(
                protocol_packet(0, 9, "RREQ", 0, tag=i)
            ))
        sim.run()
        assert order == [0, 1, 2, 3, 4, 5]

    def test_hottest_links_ranking(self, sim):
        net = make_net(sim)
        log = []
        attach_recorder(net, 1, log)
        for i in range(5):
            sim.post(i, lambda: net.send(protocol_packet(0, 1, "RREQ", 0)))
        sim.run()
        top = net.hottest_links(1)
        assert top and top[0][1] > 0

    def test_stats_accumulate(self, sim):
        net = make_net(sim)
        log = []
        attach_recorder(net, 3, log)
        sim.post(0, lambda: net.send(protocol_packet(0, 3, "RREQ", 0)))
        sim.run()
        assert net.stats.packets == 1
        assert net.stats.per_opcode["RREQ"] == 1
        assert net.stats.mean_latency > 0


class TestIdealNetwork:
    def test_fixed_latency(self, sim):
        net = IdealNetwork(sim, 8, latency=10)
        log = []
        attach_recorder(net, 5, log)
        pkt = protocol_packet(0, 5, "RREQ", 0)
        sim.post(0, lambda: net.send(pkt))
        sim.run()
        assert log[0][0] == 10 + pkt.length_words

    def test_no_contention_between_senders(self, sim):
        net = IdealNetwork(sim, 8, latency=10)
        log = []
        attach_recorder(net, 5, log)
        sim.post(0, lambda: net.send(protocol_packet(0, 5, "RREQ", 0)))
        sim.post(0, lambda: net.send(protocol_packet(1, 5, "RREQ", 0)))
        sim.run()
        assert log[0][0] == log[1][0]

    def test_per_pair_fifo_clamp(self, sim):
        net = IdealNetwork(sim, 8, latency=10)
        order = []
        net.attach(5, lambda p: order.append(p.meta["tag"]))
        data = BlockData(16)  # long packet first
        sim.post(0, lambda: net.send(
            protocol_packet(0, 5, "RDATA", 0, data=data, tag="long")
        ))
        sim.post(1, lambda: net.send(protocol_packet(0, 5, "RREQ", 0, tag="short")))
        sim.run()
        assert order == ["long", "short"]


class TestAttachment:
    def test_double_attach_rejected(self, sim):
        net = make_net(sim)
        net.attach(0, lambda p: None)
        with pytest.raises(ValueError):
            net.attach(0, lambda p: None)

    def test_unattached_destination_raises(self, sim):
        net = make_net(sim)
        sim.post(0, lambda: net.send(protocol_packet(0, 3, "RREQ", 0)))
        with pytest.raises(KeyError):
            sim.run()


class TestPacketFormat:
    def test_length_includes_header_operands_data(self):
        pkt = protocol_packet(0, 1, "RDATA", 0x40, data=BlockData(4))
        # header(1) + address(1) + 4 data words
        assert pkt.length_words == 6

    def test_meta_counts_as_operands(self):
        a = protocol_packet(0, 1, "INV", 0x40, txn=3)
        b = protocol_packet(0, 1, "BUSY", 0x40)
        assert a.length_words == b.length_words + 1

    def test_data_bearing_requires_data(self):
        with pytest.raises(ValueError):
            Packet(0, 1, "RDATA", 0)

    def test_unknown_protocol_opcode_rejected(self):
        with pytest.raises(ValueError):
            protocol_packet(0, 1, "NOPE", 0)

    def test_interrupt_class(self):
        from repro.network.packet import interrupt_packet

        pkt = interrupt_packet(0, 1, "PROFILE", payload=7)
        assert pkt.is_interrupt
        assert not pkt.is_protocol

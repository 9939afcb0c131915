"""A scripted test rig for directory controllers.

Builds one real memory controller (on node 0) and fake caches on the other
nodes: injected packets travel over an ideal network, and everything the
controller sends back is captured per destination.  Conformance tests drive
exact Table 2 transitions through it.
"""

from __future__ import annotations

from repro.mem.address import AddressSpace
from repro.mem.memory import BlockData, MainMemory
from repro.network.fabric import IdealNetwork
from repro.network.interface import NetworkInterface
from repro.network.packet import OP_BY_NAME, Op, Packet, protocol_packet
from repro.sim.kernel import Simulator
from repro.stats.counters import Counters


class ControllerRig:
    """One controller under test plus scripted remote caches."""

    def __init__(
        self,
        controller_cls,
        *,
        n_nodes: int = 5,
        home: int = 0,
        auto_ack: bool = False,
        **controller_kwargs,
    ) -> None:
        self.sim = Simulator(max_cycles=1_000_000)
        self.space = AddressSpace(
            n_nodes=n_nodes, block_bytes=16, segment_bytes=1 << 16
        )
        self.home = home
        self.net = IdealNetwork(self.sim, n_nodes, latency=2)
        self.nics = [
            NetworkInterface(self.sim, i, self.net) for i in range(n_nodes)
        ]
        self.memory = MainMemory(self.space, home)
        self.counters = Counters()
        self.controller = controller_cls(
            self.sim,
            home,
            self.space,
            self.memory,
            self.nics[home],
            counters=self.counters,
            **controller_kwargs,
        )
        self.received: dict[int, list[Packet]] = {i: [] for i in range(n_nodes)}
        self.auto_ack = auto_ack
        self._rw_copies: dict[tuple[int, int], object] = {}
        for i in range(n_nodes):
            self.nics[i].set_cache_handler(self._make_cache_handler(i))
            if i != home:
                self.nics[i].set_memory_handler(
                    lambda p: (_ for _ in ()).throw(
                        AssertionError(f"unexpected memory packet {p}")
                    )
                )

    def _make_cache_handler(self, node: int):
        def handler(packet: Packet) -> None:
            self.received[node].append(packet)
            if not self.auto_ack:
                return
            if packet.opcode is Op.WDATA:
                # the node now owns a read-write copy
                self._rw_copies[(node, packet.address)] = packet.data.copy()
            elif packet.opcode is Op.INV:
                txn = packet.meta.get("txn")
                owned = self._rw_copies.pop((node, packet.address), None)
                if owned is not None:
                    # a real cache answers INV on a dirty-exclusive copy
                    # with the data (UPDATE), not a bare acknowledgment
                    self.send(node, "UPDATE", packet.address, data=owned, txn=txn)
                else:
                    self.send(node, "ACKC", packet.address, txn=txn)

        return handler

    # ------------------------------------------------------------------

    def block(self, index: int = 0) -> int:
        """A block address homed at the controller."""
        return self.space.address(self.home, 0x100 + index * self.space.block_bytes)

    def send(self, src: int, opcode: str, block: int, *, data=None, **meta) -> None:
        packet = protocol_packet(src, self.home, opcode, block, data=data, **meta)
        self.sim.post(self.sim.now, lambda: self.nics[src].send(packet))

    def run(self) -> None:
        self.sim.run()

    def sent_to(self, node: int, opcode: str | None = None) -> list[Packet]:
        packets = self.received[node]
        if opcode is None:
            return packets
        want = OP_BY_NAME.get(opcode, opcode)
        return [p for p in packets if p.opcode == want]

    def last_to(self, node: int) -> Packet:
        return self.received[node][-1]

    def entry(self, block: int):
        return self.controller.directory.entry(block)

    def data(self, *words: int) -> BlockData:
        blk = BlockData(self.space.words_per_block)
        for i, w in enumerate(words):
            blk.words[i] = w
        return blk

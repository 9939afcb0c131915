#!/usr/bin/env python3
"""Protocol walkthrough: watch Table 2 happen, message by message.

Instruments the network of a 6-node machine and prints every protocol
packet for one shared block while a script of reads and writes drives the
directory through its states — including a LimitLESS pointer overflow and
the Trap-On-Write termination.

Run:  python examples/protocol_walkthrough.py
"""

from repro import AlewifeConfig
from repro.machine import AlewifeMachine
from repro.proc import ops
from repro.workloads.base import Workload


class _Script(Workload):
    """Readers 1..4 share a block homed at 0; node 5 then writes it."""

    name = "walkthrough"

    def __init__(self):
        self.addr = None

    def build(self, machine):
        var = machine.allocator.alloc_scalar("X", home=0)
        self.addr = var.base

        def reader(p):
            yield ops.think(10 * p)  # stagger arrivals for a readable trace
            yield ops.load(var.base)

        def writer():
            yield ops.think(400)
            yield ops.store(var.base, 99)

        programs = {p: [reader(p)] for p in range(1, 5)}
        programs[0] = [reader(0)]
        programs[5] = [writer()]
        return programs


def main() -> None:
    # Two hardware pointers: the third reader overflows into software.
    config = AlewifeConfig(n_procs=6, protocol="limitless", pointers=2, ts=50)
    machine = AlewifeMachine(config)
    workload = _Script()
    programs = workload.build(machine)
    block = machine.space.block_of(workload.addr)

    original_send = machine.network.send

    def traced_send(packet):
        if packet.address == block and packet.is_protocol:
            txn = packet.meta.get("txn")
            extra = f" txn={txn}" if txn is not None else ""
            data = " +data" if packet.data is not None else ""
            print(
                f"  [{machine.sim.now:>5}] {packet.opcode:6s} "
                f"node{packet.src} -> node{packet.dst}{extra}{data}"
            )
        original_send(packet)

    machine.network.send = traced_send

    entry = machine.nodes[0].directory_controller.directory.entry(block)
    last = {"state": None}

    def watch_state():
        snapshot = (entry.state.name, entry.meta.name, tuple(sorted(entry.sharers)))
        if snapshot != last["state"]:
            print(
                f"  [{machine.sim.now:>5}]        directory: "
                f"{entry.state.name} / {entry.meta.name} P={set(snapshot[2]) or '{}'}"
            )
            last["state"] = snapshot
        machine.sim.post_after(5, watch_state)

    print("Block X homed at node 0; LimitLESS with TWO hardware pointers.\n")
    for proc_id, gens in programs.items():
        for gen in gens:
            machine.nodes[proc_id].processor.add_thread(gen)
    machine.sim.post(0, watch_state)
    for node in machine.nodes:
        node.start()
    machine.sim.run(until=1200)

    software = machine.nodes[0].software
    print(
        f"\nTraps taken at node 0: {machine.nodes[0].processor.traps_taken} "
        f"(software vector now {software.vectors.get(block, 'freed')})"
    )
    print(f"Final directory state: {entry.state.name}, P={entry.all_copy_holders()}")


if __name__ == "__main__":
    main()

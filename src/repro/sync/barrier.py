"""Barrier synchronization over real shared memory.

The paper's applications synchronize with barriers; Weather uses *software
combining trees* to distribute its barrier variables (and still suffers a
hot-spot from one unoptimized variable).  We implement both styles the
applications used:

* **central barrier** — a single counter + release flag.  Every processor
  increments the counter and spins on the flag, so the flag's worker-set is
  the full machine: a built-in hot-spot.
* **combining-tree barrier** — processors fan in through a tree of
  counters with small arity; each tree node's counter is a migratory object
  touched by ``arity`` processors and each release flag has a worker-set of
  about ``arity``.  With arity 2 this produces the "worker-set of exactly
  two processors" data that makes LimitLESS1 look bad in Figure 10.

Barriers are *sense-free epoch barriers*: release flags hold the epoch
number, spinners wait for ``flag >= epoch``, and the last arriver resets
the counter before climbing, so the same tree is reused every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Iterator

from ..mem.address import Allocator
from ..proc import ops


@dataclass
class BarrierNode:
    """One combining-tree node: an arrival counter and a release flag."""

    name: str
    counter_addr: int
    flag_addr: int
    arity: int
    parent: "BarrierNode | None" = None
    children: list["BarrierNode"] = field(default_factory=list)


@dataclass
class BarrierSpec:
    """A barrier instance shared by a set of processors."""

    name: str
    participants: list[int]
    leaves: dict[int, BarrierNode]  # proc id -> the node it arrives at
    root: BarrierNode

    def leaf_of(self, proc_id: int) -> BarrierNode:
        return self.leaves[proc_id]

    def nodes(self) -> Iterator[BarrierNode]:
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(node.children)


def build_central_barrier(
    allocator: Allocator, participants: list[int], *, name: str = "barrier", home: int | None = None
) -> BarrierSpec:
    """A single-node barrier: counter and flag on one home node."""
    if not participants:
        raise ValueError("barrier needs participants")
    node_home = participants[0] if home is None else home
    counter = allocator.alloc_scalar(f"{name}.counter", home=node_home)
    flag = allocator.alloc_scalar(f"{name}.flag", home=node_home)
    root = BarrierNode(name, counter.base, flag.base, len(participants))
    return BarrierSpec(name, list(participants), {p: root for p in participants}, root)


def build_combining_tree(
    allocator: Allocator,
    participants: list[int],
    *,
    arity: int = 4,
    name: str = "barrier",
) -> BarrierSpec:
    """A combining-tree barrier with the given fan-in.

    Tree nodes are homed on the first participant of the group they serve,
    spreading barrier traffic across the machine as Weather's software
    combining trees did.
    """
    if not participants:
        raise ValueError("barrier needs participants")
    if arity < 2:
        raise ValueError("combining tree arity must be >= 2")
    if len(participants) == 1:
        return build_central_barrier(allocator, participants, name=name)

    def make_node(label: str, group_arity: int, home: int) -> BarrierNode:
        counter = allocator.alloc_scalar(f"{name}.{label}.counter", home=home)
        flag = allocator.alloc_scalar(f"{name}.{label}.flag", home=home)
        return BarrierNode(f"{name}.{label}", counter.base, flag.base, group_arity)

    # Build level 0: leaves grouping `arity` processors each.
    leaves: dict[int, BarrierNode] = {}
    level: list[tuple[BarrierNode, int]] = []  # (node, representative proc)
    for start in range(0, len(participants), arity):
        group = participants[start : start + arity]
        node = make_node(f"L0.{start // arity}", len(group), group[0])
        for proc in group:
            leaves[proc] = node
        level.append((node, group[0]))

    # Fan in until a single root remains.
    depth = 1
    while len(level) > 1:
        next_level: list[tuple[BarrierNode, int]] = []
        for start in range(0, len(level), arity):
            group = level[start : start + arity]
            node = make_node(f"L{depth}.{start // arity}", len(group), group[0][1])
            for child, _rep in group:
                child.parent = node
                node.children.append(child)
            next_level.append((node, group[0][1]))
        level = next_level
        depth += 1

    root = level[0][0]
    return BarrierSpec(name, list(participants), leaves, root)


def barrier_wait(
    spec: BarrierSpec, proc_id: int, epoch: int, *, poll_interval: int = 12
) -> Generator[tuple, int, None]:
    """Program fragment (use via ``yield from``) performing one barrier.

    ``epoch`` must be 1 for the first barrier on a spec, 2 for the second,
    and so on (one counter per calling site is the usual pattern).
    """
    node: BarrierNode | None = spec.leaf_of(proc_id)
    climbed: list[BarrierNode] = []
    while node is not None:
        old = yield ops.fetch_add(node.counter_addr, 1)
        if old == node.arity - 1:
            # Last arriver: reset the counter for reuse, then climb.
            yield ops.store(node.counter_addr, 0)
            climbed.append(node)
            node = node.parent
        else:
            break
    if node is not None:
        # Not last here: spin on this node's release flag.  Between polls
        # a spinning thread backs off, then yields the pipeline (the
        # synchronization-fault switch) so same-node threads cannot starve
        # each other; the processor runs the loop without resuming us.
        backoff = ops.burst(ops.think(poll_interval), ops.switch_hint())
        yield ops.spin_until(node.flag_addr, ops.GE, epoch, backoff)
    # Release every node this processor won, top-down.  The fence orders
    # the release stores after everything above (counter resets and the
    # caller's data stores) under the weakly-ordered memory model; it is a
    # one-cycle no-op under sequential consistency.
    if climbed:
        yield ops.fence()
    for won in reversed(climbed):
        yield ops.store(won.flag_addr, epoch)

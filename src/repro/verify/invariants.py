"""Coherence invariant auditing.

At quiescence (all programs finished, no packets in flight, no open
transactions) the machine must satisfy the invariants the protocol exists
to provide.  The auditor cross-checks three sources of truth — the
directory entries, the software-extended vectors, and the actual cache
arrays — plus the block data itself.

The per-block checks themselves live in :mod:`repro.verify.predicates` as
pure functions over a :class:`~repro.verify.predicates.BlockView`; the
exhaustive model checker (:mod:`repro.modelcheck`) applies the same
predicates to every reachable state, so a property proved there is the
property audited here.

Allowed asymmetry: a directory (or software vector) may record a *stale*
sharer whose cache silently replaced its clean copy; the reverse — a cache
holding a copy the directory does not know about — is a protocol violation.
"""

from __future__ import annotations

from .predicates import BlockView, quiescent_problems, state_problems


class CoherenceViolation(AssertionError):
    """The memory system ended in an inconsistent state."""


def machine_block_view(node, entry, cached_copies) -> BlockView:
    """Build the auditor's :class:`BlockView` for one directory entry.

    ``cached_copies`` maps node id -> ``(state, words)`` for every valid
    copy of the entry's block, machine-wide.  The tuple form (rather than
    live cache-line objects) is deliberate: the same holdings map feeds
    the checkpoint digest.  Nothing is in flight at audit time, so the
    in-flight invalidation set is empty and ``awaited`` is whatever the
    (necessarily broken, if nonempty) entry still records.
    """
    controller = node.directory_controller
    software = node.software
    recorded = controller.recorded_holders(entry)
    vector = software.vectors.get(entry.block, set()) if software else set()
    if recorded is not None:
        recorded = set(recorded) | vector
    traps_pending = sum(
        1 for p in node.nic._ipi_queue if p.address == entry.block
    )
    return BlockView(
        block=entry.block,
        dir_state=entry.state,
        meta=entry.meta,
        trap_mode=entry.trap_mode,
        recorded=recorded,
        awaited=set(entry.ack_waiting),
        requester=entry.requester,
        cached=dict(cached_copies),
        memory_data=node.memory.block(entry.block).words,
        pending_packets=len(entry.pending),
        traps_pending=traps_pending,
        software_vector=vector,
    )


def cache_holdings(nodes) -> dict[int, dict[int, tuple]]:
    """Map block -> {node: (state, words)} for every valid cached copy."""
    cached: dict[int, dict[int, tuple]] = {}
    for node in nodes:
        for line in node.cache_array.valid_lines():
            cached.setdefault(line.block, {})[node.node_id] = (
                line.state,
                line.data.words,
            )
    return cached


def local_quiesce_problems(nodes, network) -> list[str]:
    """Quiescence checks (in-flight, MSHRs, IPI queues)."""
    problems: list[str] = []
    if network.in_flight:
        problems.append(f"{network.in_flight} packets still in flight")
    for node in nodes:
        if not node.cache_controller.idle():
            problems.append(f"node {node.node_id}: open MSHRs at quiescence")
        if node.nic.ipi_pending():
            problems.append(f"node {node.node_id}: IPI queue not drained")
    return problems


def audit_entries(nodes, cached) -> tuple[int, list[str]]:
    """Audit the directory entries homed on ``nodes`` against the
    machine-wide ``cached`` holdings map; returns (entries checked,
    problems found)."""
    problems: list[str] = []
    checked = 0
    for node in nodes:
        for entry in node.directory_controller.directory.entries():
            checked += 1
            view = machine_block_view(node, entry, cached.get(entry.block, {}))
            problems += quiescent_problems(view)
            problems += state_problems(view)
    return checked, problems


def raise_on_problems(problems: list[str]) -> None:
    """Raise :class:`CoherenceViolation` summarizing a nonempty list."""
    if not problems:
        return
    summary = "\n  ".join(problems[:20])
    more = f"\n  (+{len(problems) - 20} more)" if len(problems) > 20 else ""
    raise CoherenceViolation(
        f"{len(problems)} coherence violations:\n  {summary}{more}"
    )


def audit_machine(machine) -> int:
    """Audit a finished machine; returns the number of entries checked."""
    problems = local_quiesce_problems(machine.nodes, machine.network)
    cached = cache_holdings(machine.nodes)
    checked, entry_problems = audit_entries(machine.nodes, cached)
    raise_on_problems(problems + entry_problems)
    return checked

"""Slot-registry growth contract: shipped components never grow it.

The slot registry is process-global by design, which makes monotonic
growth a leak for long-lived processes.  Two guarantees pin the fix:

* every shipped component interns its slot names in module-level
  constants, so building machines in a loop leaves the registry size
  unchanged after the first build;
* phases that intern dynamically generated names can bracket themselves
  with ``slot_registry_snapshot`` / ``restore_slot_registry`` and shed
  exactly their own entries.
"""

from __future__ import annotations

import pytest

from repro.machine import AlewifeConfig, AlewifeMachine
from repro.stats import counters as counters_module
from repro.stats.counters import (
    Counters,
    counter_slot,
    restore_slot_registry,
    slot_registry_snapshot,
)


class TestMachineBuildsDoNotLeak:
    @pytest.mark.parametrize("backend", ["reference", "soa"])
    def test_repeated_builds_leave_the_registry_size_fixed(self, backend):
        config = AlewifeConfig(
            n_procs=4, protocol="limitless", pointers=4, ts=50, backend=backend
        )
        AlewifeMachine(config)  # first build interns whatever is lazy
        size = slot_registry_snapshot()
        for _ in range(3):
            AlewifeMachine(config)
        assert slot_registry_snapshot() == size


class TestSnapshotRestore:
    def test_restore_sheds_exactly_the_bracketed_entries(self):
        base = counter_slot("test.registry.kept")
        mark = slot_registry_snapshot()
        dynamic = [counter_slot(f"test.registry.dyn.{i}") for i in range(5)]
        assert slot_registry_snapshot() == mark + 5
        restore_slot_registry(mark)
        assert slot_registry_snapshot() == mark
        # Pre-snapshot entries keep their ids; dropped names re-intern
        # from the truncation point, not past it.
        assert counter_slot("test.registry.kept") == base
        assert counter_slot("test.registry.dyn.0") == mark
        assert counter_slot("test.registry.dyn.0") != dynamic[1]
        restore_slot_registry(mark)

    def test_folded_counts_survive_a_restore(self):
        mark = slot_registry_snapshot()
        slot = counter_slot("test.registry.folded")
        bag = Counters()
        view = bag.slot_view()
        view[slot] += 7
        assert bag.get("test.registry.folded") == 7  # reading folds
        restore_slot_registry(mark)
        assert bag.get("test.registry.folded") == 7
        assert "test.registry.folded" not in counters_module._SLOT_IDS

    def test_restore_rejects_markers_outside_the_registry(self):
        with pytest.raises(ValueError):
            restore_slot_registry(-1)
        with pytest.raises(ValueError):
            restore_slot_registry(slot_registry_snapshot() + 1)

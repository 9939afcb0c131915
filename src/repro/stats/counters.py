"""Lightweight named counters and histograms shared by all components.

Two tiers share one namespace:

* **Named bumps** — ``counters.bump("dir.stray.ACKC")`` — hash a string per
  update.  Fine for cold paths (errors, faults, reports).
* **Slot counters** — a component interns a name once with
  :func:`counter_slot` and then increments a plain list cell on the hot
  path.  Slots are process-global (the registry only grows), and they
  fold back into the named bag whenever anything *reads* the counters,
  so reports, merges, and serialized results are unchanged.

The shipped components intern their slots in module-level constants, so
building machines in a loop does not grow the registry.  Code that
interns *dynamically generated* names (tests, exploratory harnesses)
would grow it monotonically; :func:`slot_registry_snapshot` /
:func:`restore_slot_registry` bracket such phases so long-lived
processes (the sweep cache, ``repro serve``) can shed those entries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

#: process-global slot registry: name -> dense id, id -> name
_SLOT_IDS: dict[str, int] = {}
_SLOT_NAMES: list[str] = []


def counter_slot(name: str) -> int:
    """Intern ``name`` and return its dense slot id (stable per process)."""
    idx = _SLOT_IDS.get(name)
    if idx is None:
        idx = len(_SLOT_NAMES)
        _SLOT_IDS[name] = idx
        _SLOT_NAMES.append(name)
    return idx


def slot_registry_snapshot() -> int:
    """Opaque marker for the current registry extent.

    Take one before a phase that may intern dynamically generated slot
    names, then hand it to :func:`restore_slot_registry` to drop those
    entries again.
    """
    return len(_SLOT_NAMES)


def restore_slot_registry(snapshot: int) -> None:
    """Truncate the registry back to a :func:`slot_registry_snapshot`.

    Every :class:`Counters` that bumped a now-dropped slot must be
    folded (any read does it) or discarded *before* restoring: ids above
    the snapshot no longer resolve to names afterwards.  Entries interned
    before the snapshot keep their ids, so captured ``slot_view`` lists
    for them stay valid.
    """
    if snapshot < 0 or snapshot > len(_SLOT_NAMES):
        raise ValueError(
            f"snapshot {snapshot} does not bracket the registry "
            f"(currently {len(_SLOT_NAMES)} slots)"
        )
    for name in _SLOT_NAMES[snapshot:]:
        del _SLOT_IDS[name]
    del _SLOT_NAMES[snapshot:]


class Counters:
    """A bag of named integer counters.

    Components bump counters by name; reports read them back.  Unknown names
    read as zero, so report code never KeyErrors on configurations that
    simply never exercised a path.
    """

    def __init__(self) -> None:
        self._values: Counter[str] = Counter()
        self._slots: list[int] = []

    # ------------------------------------------------------------------
    # Slot tier (hot paths)
    # ------------------------------------------------------------------

    def slot_view(self) -> list[int]:
        """The slot array, grown to cover every registered slot.

        Hot components capture this list once at construction and bump
        ``view[slot] += 1`` directly.  The list grows in place, so views
        captured before later registrations stay valid.
        """
        slots = self._slots
        grow = len(_SLOT_NAMES) - len(slots)
        if grow > 0:
            slots.extend([0] * grow)
        return slots

    def _fold(self) -> None:
        """Fold slot counts into the named bag (idempotent)."""
        slots = self._slots
        if not slots:
            return
        values = self._values
        names = _SLOT_NAMES
        for idx, count in enumerate(slots):
            if count:
                values[names[idx]] += count
                slots[idx] = 0

    def __getstate__(self) -> dict:
        # Serialize by name only: slot ids are process-local, and a pickle
        # may be merged in a process with a different registry order.
        self._fold()
        return {"_values": self._values, "_slots": []}

    def __setstate__(self, state: dict) -> None:
        self._values = state["_values"]
        self._slots = []

    # ------------------------------------------------------------------
    # Named tier
    # ------------------------------------------------------------------

    def bump(self, name: str, amount: int = 1) -> None:
        self._values[name] += amount

    def get(self, name: str) -> int:
        self._fold()
        return self._values.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        self._fold()
        return dict(self._values)

    @classmethod
    def from_dict(cls, values: dict[str, int]) -> "Counters":
        """Rebuild a counter bag from :meth:`as_dict` output."""
        counters = cls()
        counters._values.update(values)
        return counters

    def prefixed(self, prefix: str) -> list[tuple[str, int]]:
        """All (suffix, count) pairs under ``prefix.``, sorted by name.

        ``prefixed("dir.stray")`` returns e.g. ``[("ACKC", 3), ("REPM", 1)]``
        for counters named ``dir.stray.ACKC`` / ``dir.stray.REPM``.
        """
        self._fold()
        dot = prefix + "."
        return sorted(
            (name[len(dot):], count)
            for name, count in self._values.items()
            if name.startswith(dot)
        )

    def merge(self, other: "Counters") -> None:
        other._fold()
        self._values.update(other._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self._fold()
        return f"Counters({dict(self._values)})"


@dataclass
class Histogram:
    """Integer-valued histogram (e.g. worker-set sizes)."""

    counts: Counter = field(default_factory=Counter)

    def add(self, value: int, weight: int = 1) -> None:
        self.counts[value] += weight

    def total(self) -> int:
        return sum(self.counts.values())

    def mean(self) -> float:
        total = self.total()
        if not total:
            return 0.0
        return sum(v * c for v, c in self.counts.items()) / total

    def max(self) -> int:
        return max(self.counts) if self.counts else 0

    def fraction_at_most(self, value: int) -> float:
        total = self.total()
        if not total:
            return 0.0
        return sum(c for v, c in self.counts.items() if v <= value) / total

    def as_sorted_items(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())

    @classmethod
    def from_items(cls, items) -> "Histogram":
        """Rebuild from (value, count) pairs; values coerced back to int
        (JSON object keys arrive as strings)."""
        hist = cls()
        for value, count in items:
            hist.counts[int(value)] = count
        return hist

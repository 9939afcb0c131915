"""Tests for the component base class and deterministic RNG."""

from __future__ import annotations

from repro.sim.component import Component
from repro.sim.rng import DeterministicRng


class TestComponent:
    def test_now_tracks_simulator(self, sim):
        comp = Component(sim, "c0")
        seen = []
        sim.post(12, lambda: seen.append(comp.now))
        sim.run()
        assert seen == [12]

    def test_schedule_is_relative(self, sim):
        comp = Component(sim, "c0")
        seen = []
        sim.post(10, lambda: comp.schedule(5, lambda: seen.append(comp.now)))
        sim.run()
        assert seen == [15]


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(5)
        b = DeterministicRng(5)
        assert [a.randint("x", 0, 100) for _ in range(10)] == [
            b.randint("x", 0, 100) for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        a = DeterministicRng(5)
        b = DeterministicRng(6)
        assert [a.randint("x", 0, 10**9) for _ in range(4)] != [
            b.randint("x", 0, 10**9) for _ in range(4)
        ]

    def test_streams_are_independent(self):
        """Draws on one stream must not perturb another — the property
        that keeps e.g. network jitter from changing workload layout."""
        a = DeterministicRng(5)
        b = DeterministicRng(5)
        # interleave extra draws on an unrelated stream in machine `a`
        seq_a = []
        for _ in range(5):
            a.randint("noise", 0, 100)
            seq_a.append(a.randint("x", 0, 100))
        seq_b = [b.randint("x", 0, 100) for _ in range(5)]
        assert seq_a == seq_b

    def test_choice_and_shuffled(self):
        rng = DeterministicRng(7)
        items = list(range(10))
        assert rng.choice("c", items) in items
        shuffled = rng.shuffled("s", items)
        assert sorted(shuffled) == items
        assert items == list(range(10))  # input untouched

    def test_stream_is_cached(self):
        rng = DeterministicRng(1)
        assert rng.stream("a") is rng.stream("a")
        assert rng.stream("a") is not rng.stream("b")

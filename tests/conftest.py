"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.backend import backend_names, get_backend
from repro.machine import AlewifeConfig
from repro.mem.address import AddressSpace
from repro.sim.kernel import Simulator


def pytest_report_header(config) -> list[str]:
    """Which engine each backend name resolved to in this process: a
    ``native`` that silently fell back to ``reference`` (extension not
    built, disabled, or stale) must not pass for a run of the compiled
    kernels."""
    return [
        f"repro backend {name!r}: {get_backend(name).notes or 'pure Python'}"
        for name in backend_names()
    ]


def pytest_terminal_summary(terminalreporter, config) -> None:
    # ``-q`` (this repo's default) drops the header: say it at the end.
    if config.getoption("verbose") < 0:
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)


@pytest.fixture
def sim() -> Simulator:
    return Simulator(max_cycles=10_000_000)


@pytest.fixture
def space4() -> AddressSpace:
    """A small 4-node address space with Alewife-sized blocks."""
    return AddressSpace(n_nodes=4, block_bytes=16, segment_bytes=1 << 16)


def small_config(**overrides) -> AlewifeConfig:
    """A fast machine config for integration tests."""
    defaults = dict(
        n_procs=4,
        protocol="fullmap",
        pointers=2,
        ts=50,
        cache_lines=256,
        segment_bytes=1 << 16,
        seed=7,
        max_cycles=5_000_000,
    )
    defaults.update(overrides)
    return AlewifeConfig(**defaults)


@pytest.fixture
def config_factory():
    return small_config

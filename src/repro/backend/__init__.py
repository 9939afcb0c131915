"""Swappable simulation backends.

The pure-Python object model (``reference``) is the golden semantics of
the reproduction: every protocol decision, cycle count, and counter in
this repo is defined by what that code does.  A *backend* swaps the data
layout and inner loops underneath that semantics without changing a
single observable number: ``soa`` stores cache-line tags/state/data and
directory entries in flat structure-of-arrays storage (stdlib
:mod:`array` slabs viewed through :class:`memoryview`) under the
unmodified reference kernel, processor, controllers and fabric.
``native`` is that storage with a compiled event core and compiled
kernels installed on it; without the extension it *is* ``reference``,
the fastest of the Python engines.

Equivalence is *bit-identical*: the SoA components present the exact
reference object protocol (``CacheLine``-shaped views, ``set``-shaped
pointer views), allocate the same event sequence numbers, and produce
byte-equal :class:`~repro.machine.machine.MachineStats` and checkpoint
state digests.  ``tests/backend`` pins this as a golden tier.

Nothing here imports ``numpy``: the storage and its one bulk scan are
stdlib, so no process pays for the import.  ``HAS_NUMPY`` only records
whether the host has it, because benchmark reports key host identity on
that.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from importlib.util import find_spec
from typing import TYPE_CHECKING, Callable, Optional

from ..network.fabric import WormholeNetwork
from ..sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.cache import CacheArray
    from ..mem.address import AddressSpace


#: True when numpy is installed on this host (it is never imported).
HAS_NUMPY = find_spec("numpy") is not None


@dataclass(frozen=True)
class Backend:
    """Factory bundle for the swappable machine components.

    The processor and the cache/directory controllers are shared by
    every backend — they operate through the view protocol the factories
    return.  ``wormhole_class`` builds the atomic mesh (called like
    :class:`~repro.network.fabric.WormholeNetwork`).  ``make_directory``
    returning ``None`` keeps the controller's own reference
    :class:`~repro.coherence.entry.Directory`.
    """

    name: str
    make_simulator: Callable[..., Simulator]
    make_cache_array: Callable[["AddressSpace", int], "CacheArray"]
    make_directory: Callable[[int], object | None]
    wormhole_class: Callable[..., WormholeNetwork]
    #: packet-pool factory (``PacketPool``-shaped); ``None`` keeps the
    #: reference pool.
    make_pool: Optional[Callable[..., object]] = None
    #: post-build hook: called with the fully wired machine so a backend
    #: can install per-node kernels (native: step, receive, directory).
    finalize: Optional[Callable[[object], None]] = None
    #: human-readable status — fallbacks record *why* here, and run/
    #: profile/bench surfaces report it as ``backend_notes``.
    notes: Optional[str] = field(default=None, compare=False)


def _reference_backend() -> Backend:
    from ..cache.cache import CacheArray

    return Backend(
        name="reference",
        make_simulator=lambda *, max_cycles=None: Simulator(max_cycles=max_cycles),
        make_cache_array=CacheArray,
        make_directory=lambda node_id: None,
        wormhole_class=WormholeNetwork,
    )


def _soa_backend() -> Backend:
    from .soa import SoaCacheArray, SoaDirectory

    return replace(
        _reference_backend(),
        name="soa",
        make_cache_array=SoaCacheArray,
        make_directory=SoaDirectory,
    )


def _native_backend() -> Backend:
    from . import native

    ok, reason = native.load_status()
    if not ok:
        # Graceful degradation: the run proceeds on the reference
        # components, and the reason is visible wherever backend_notes
        # surface.
        return replace(
            _reference_backend(),
            name="native",
            notes=f"native extension unavailable ({reason}); "
            "running reference fallback",
        )
    from .soa import SoaCacheArray, SoaDirectory

    return Backend(
        name="native",
        make_simulator=lambda *, max_cycles=None: native.NativeSimulator(
            max_cycles=max_cycles
        ),
        make_cache_array=SoaCacheArray,
        make_directory=SoaDirectory,
        wormhole_class=native.wormhole_network,
        make_pool=native.NativePacketPool,
        finalize=native.finalize,
        notes="compiled kernels active",
    )


_FACTORIES: dict[str, Callable[[], Backend]] = {
    "reference": _reference_backend,
    "soa": _soa_backend,
    "native": _native_backend,
}

_INSTANCES: dict[str, Backend] = {}


def backend_names() -> tuple[str, ...]:
    """Every selectable backend name (stable order: reference first)."""
    return tuple(_FACTORIES)


def get_backend(name: str) -> Backend:
    """The backend registered under ``name`` (built once, then cached)."""
    backend = _INSTANCES.get(name)
    if backend is None:
        factory = _FACTORIES.get(name)
        if factory is None:
            raise ValueError(
                f"unknown backend {name!r}; choose from {backend_names()}"
            )
        backend = factory()
        _INSTANCES[name] = backend
    return backend


def equivalence_fingerprint(stats) -> str:
    """Backend-comparable digest of one run's :class:`MachineStats`.

    Hashes the canonical JSON of ``stats.to_dict()`` minus ``config``,
    which legitimately differs between otherwise bit-identical runs (it
    records which backend was *asked for*).  Two runs of the same
    (config-sans-backend, workload) agree on this digest iff every cycle
    count, counter, histogram, and network statistic matches.
    """
    import hashlib
    import json

    record = stats.to_dict()
    record.pop("config", None)
    blob = json.dumps(record, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


__all__ = [
    "Backend",
    "HAS_NUMPY",
    "backend_names",
    "equivalence_fingerprint",
    "get_backend",
]

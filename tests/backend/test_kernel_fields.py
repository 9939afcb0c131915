"""Each compiled kernel declares its fields once, in ``_native.c``, and one
init, traverse, clear and settle fold walk that declaration.  These tests
hold it to the specs ``repro.backend.native`` actually builds:

* **the collector sees exactly what a kernel owns.**  ``gc.get_referents``
  of each kernel is its core, every object-valued spec entry it keeps,
  the ``__dict__``s it derives from some of them and, for an ``RxChain``,
  the node's ``StepKernel`` and the three receive handlers it captured.
  A field missing from traverse hides a cycle from the collector; one
  missing from clear leaks it.
* **every spec key is required, and an error names it.**  A missing key
  is ``KeyError("spec missing <key>")``; a value of the wrong type — a
  column, a count, an index tuple, the core — is a ``TypeError`` that
  says ``spec[<key>]``; and a refused spec leaks nothing.
"""

from __future__ import annotations

import gc
import re

import pytest

from repro.backend import native
from repro.network.packet import Op

from .opstream import make_machine
from .test_leak_soak import assert_nothing_accumulates

needs_extension = pytest.mark.skipif(
    not native.available(), reason="extension not built"
)

KERNELS = ("StepKernel", "RxChain", "NetSend", "DirKernel")

#: spec keys a kernel reads into C values rather than keeping
READ_INTO_C = {
    "StepKernel": {
        "wpb", "shift", "imask", "block_mask", "low_mask", "latency",
        "seg_shift", "n_nodes", "cache_slot_ids", "proc_slot_ids",
    },
    "RxChain": set(),
    "NetSend": {"hop_latency", "cycles_per_word", "injection_latency"},
    "DirKernel": {"n_ops", "packets_slot", "seg_shift", "n_nodes", "low_mask", "codes"},
}

#: the spec entries whose ``__dict__`` a kernel keeps as well
DICTS_OF = {
    "StepKernel": ("proc", "cache", "nic", "net"),
    "RxChain": ("nic",),
    "NetSend": ("net",),
    "DirKernel": ("ctrl", "occupancy", "nic", "net"),
}


def build_recorded():
    """A small limitless machine on ``native`` and, by kernel type, every
    ``(kernel, spec)`` its build made."""
    ext = native._native
    made = {name: [] for name in KERNELS}

    def recorder(name, kernel_type):
        def build(spec):
            kernel = kernel_type(spec)
            made[name].append((kernel, spec))
            return kernel

        return build

    with pytest.MonkeyPatch.context() as patch:
        for name in KERNELS:
            patch.setattr(ext, name, recorder(name, getattr(ext, name)))
        machine = make_machine("native")
    assert all(made.values()), {name: len(got) for name, got in made.items()}
    return machine, made


def _keys() -> list:
    if not native.available():
        return []
    machine, made = build_recorded()
    machine.dismantle()
    return [(name, key) for name in KERNELS for key in made[name][0][1]]


KEYS = _keys()


@pytest.fixture(scope="module")
def built():
    machine, made = build_recorded()
    yield made
    machine.dismantle()


def owned(name: str, spec: dict) -> list:
    kept = [value for key, value in spec.items() if key not in READ_INTO_C[name]]
    kept += [vars(spec[key]) for key in DICTS_OF[name]]
    if name == "RxChain":
        kept += spec["cache_rx"][Op.RDATA : Op.RDATA + 3]
    return kept


@needs_extension
@pytest.mark.parametrize("name", KERNELS)
def test_traverse_is_exactly_the_declaration(built, name):
    for kernel, spec in built[name]:
        referents = gc.get_referents(kernel)
        assert sorted(map(id, referents)) == sorted(map(id, owned(name, spec)))


def typed(value) -> bool:
    """A spec value whose type the kernel checks."""
    return isinstance(value, (int, list, dict, bytearray, tuple, native._native.Core))


@needs_extension
@pytest.mark.parametrize("name,key", KEYS, ids=[f"{n}-{k}" for n, k in KEYS])
def test_every_spec_key_is_required_and_named(built, name, key):
    kernel_type = getattr(native._native, name)
    spec = built[name][0][1]
    with pytest.raises(KeyError) as missing:
        kernel_type({k: v for k, v in spec.items() if k != key})
    assert missing.value.args == (f"spec missing {key}",)
    if typed(spec[key]):
        with pytest.raises(TypeError, match=re.escape(f"spec[{key}] must be")):
            kernel_type({**spec, key: "wrong"})


@needs_extension
def test_a_refused_spec_leaks_nothing(built):
    specs = [(getattr(native._native, name), built[name][0][1]) for name in KERNELS]

    def refuse_every_key():
        for kernel_type, spec in specs:
            for key, value in spec.items():
                refused = [{k: v for k, v in spec.items() if k != key}]
                if typed(value):
                    refused.append({**spec, key: "wrong"})
                for broken in refused:
                    try:
                        kernel_type(broken)
                    except (KeyError, TypeError):
                        pass

    assert_nothing_accumulates(refuse_every_key)

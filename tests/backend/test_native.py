"""Selection/fallback matrix for the compiled ``native`` backend.

The golden tier in ``test_equivalence.py`` already pins the native
backend's *results* (it parametrizes over ``backend_names()``, so the
committed SHA-256 fingerprints cover it with the extension present or
absent).  This file covers the plumbing around it: requesting ``native``
without the extension — or with one built from another ``_native.c`` —
must degrade to the reference components with a recorded reason and
identical numbers, nothing may import ``numpy``, the
``repro run``/``repro profile`` CLIs must accept ``--backend native``,
and the serve ``/metrics`` per-backend block must report native work.

The extension import and the backend registry both cache at module /
process scope, so the environment-variable cases run in subprocesses;
the in-process fallback case patches the module attributes directly.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import types

import pytest

from repro.backend import backend_names, equivalence_fingerprint, get_backend
from repro.backend import native
from repro.machine import AlewifeConfig, run_experiment
from repro.workloads import WeatherWorkload

_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)

#: one tiny scenario reused by every cross-backend identity check here
_TINY_CONFIG = dict(
    n_procs=4, protocol="limitless", pointers=2, ts=50, max_cycles=2_000_000
)
_TINY = repr(_TINY_CONFIG)


def _subprocess(code: str, **env_overrides: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


_FINGERPRINT_CODE = f"""
import json
from repro.backend import equivalence_fingerprint, get_backend
from repro.machine import AlewifeConfig, run_experiment
from repro.workloads import WeatherWorkload

prints = {{}}
for backend in ("reference", "native"):
    config = AlewifeConfig(**{_TINY}, backend=backend)
    stats = run_experiment(config, WeatherWorkload(iterations=2))
    prints[backend] = equivalence_fingerprint(stats)
print(json.dumps({{
    "fingerprints": prints,
    "notes": get_backend("native").notes,
    "simulator": type(get_backend("native").make_simulator()).__name__,
    "cache_array": get_backend("native").make_cache_array.__name__,
}}))
"""


def test_native_is_a_registered_backend():
    assert "native" in backend_names()


def test_native_backend_always_carries_notes():
    backend = get_backend("native")
    assert backend.name == "native"
    assert backend.notes
    if native.available():
        assert "compiled kernels active" in backend.notes
    else:  # pragma: no cover - depends on build
        assert "fallback" in backend.notes


def test_requested_but_missing_falls_back_and_records_reason():
    """Extension disabled via REPRO_NATIVE=0: run proceeds on the
    reference components, bit-identical, with the reason in the notes."""
    result = _subprocess(_FINGERPRINT_CODE, REPRO_NATIVE="0")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["fingerprints"]["native"] == report["fingerprints"]["reference"]
    assert "native extension unavailable" in report["notes"]
    assert "REPRO_NATIVE=0" in report["notes"]
    assert "running reference fallback" in report["notes"]
    assert report["simulator"] == "Simulator"
    assert report["cache_array"] == "CacheArray"


def test_no_numpy_does_not_perturb_native_results():
    """Nothing imports numpy — not the package, not a native run with its
    end-of-run audit (the one bulk scan numpy used to serve) — so no
    process pays its 12 MB, and the results cannot depend on it."""
    code = _FINGERPRINT_CODE + """
import sys
import repro.machine
assert "numpy" not in sys.modules, "numpy was imported"
"""
    result = _subprocess(code)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["fingerprints"]["native"] == report["fingerprints"]["reference"]
    import repro.backend

    assert not hasattr(repro.backend, "_detect_numpy")
    assert "REPRO_NO_NUMPY" not in open(repro.backend.__file__).read()


def test_in_process_fallback_uses_reference_components(monkeypatch):
    """The registry consults load_status() at bundle build time."""
    import repro.backend as backend_mod
    from repro.cache.cache import CacheArray
    from repro.sim.kernel import Simulator

    monkeypatch.setattr(native, "_native", None)
    monkeypatch.setattr(native, "_IMPORT_ERROR", "patched out for the test")
    monkeypatch.delitem(backend_mod._INSTANCES, "native", raising=False)
    try:
        backend = get_backend("native")
        assert "patched out for the test" in backend.notes
        assert "running reference fallback" in backend.notes
        assert type(backend.make_simulator()) is Simulator
        assert backend.make_cache_array is CacheArray
        assert backend.make_directory(0) is None
    finally:
        # drop the patched bundle so later tests rebuild the real one
        backend_mod._INSTANCES.pop("native", None)


def _assert_degrades_to_reference(monkeypatch, stand_in, *fragments) -> str:
    """``stand_in`` in place of the extension module must read as an
    extension that did not load: reference components, the reason in the
    notes, identical numbers.  Returns the reason."""
    import repro.backend as backend_mod

    monkeypatch.setattr(native, "_native", stand_in)
    monkeypatch.setattr(native, "_IMPORT_ERROR", None)
    monkeypatch.setattr(native, "_setup_done", False)
    monkeypatch.delitem(backend_mod._INSTANCES, "native", raising=False)
    try:
        ok, reason = native.load_status()
        assert not ok and not native.available()
        assert reason.startswith("extension stale (")
        for fragment in fragments:
            assert fragment in reason, reason
        assert reason.endswith("rebuild with python setup.py build_ext --inplace")
        backend = get_backend("native")
        assert reason in backend.notes
        assert "running reference fallback" in backend.notes
        assert type(backend.make_simulator()).__name__ == "Simulator"
        prints = {
            name: equivalence_fingerprint(
                run_experiment(
                    AlewifeConfig(**_TINY_CONFIG, backend=name),
                    WeatherWorkload(iterations=2),
                )
            )
            for name in ("reference", "native")
        }
        assert prints["native"] == prints["reference"]
    finally:
        backend_mod._INSTANCES.pop("native", None)
    return reason


@pytest.mark.parametrize(
    "refusal",
    [KeyError("spec missing deque"), TypeError("bad spec"), AttributeError("slot")],
    ids=lambda exc: type(exc).__name__,
)
def test_stale_extension_degrades_like_a_missing_one(monkeypatch, refusal):
    """A shared object built from another ``_native.c`` refuses this
    source's ``setup()`` spec.  That used to escape at machine build
    (``KeyError: 'spec missing deque'``); it must read as an extension
    that did not load: reference components, the reason in the notes."""

    def setup(spec):
        raise refusal

    _assert_degrades_to_reference(
        monkeypatch, types.SimpleNamespace(setup=setup), str(refusal)
    )


class _Core:
    """Everything ``NativeSimulator`` drives on a ``Core``, doing nothing."""

    def __init__(self):
        self.queue = []

    def bind(self, sim):
        pass

    post = post_after = bind
    run = run_until = flush_ring = bind


class _CoreWithoutSeq(_Core):
    """A ``Core`` one scalar short of what ``NativeSimulator`` sets."""

    def __setattr__(self, name, value):
        if name == "seq":
            raise AttributeError(
                "'repro._native.Core' object has no attribute 'seq'"
            )
        super().__setattr__(name, value)


def _checked_out_hash() -> str:
    source = os.path.join(os.path.dirname(native.__file__), "_native.c")
    with open(source, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_an_extension_built_from_other_source_degrades(monkeypatch):
    """Its ``setup()`` accepts this spec and its ``Core`` is complete — the
    staleness nothing trips over until a kernel misbehaves.  The build
    stamp says so: it is not the hash of the checked-out ``_native.c``."""
    stand_in = types.SimpleNamespace(
        setup=lambda spec: None, Core=_Core, SOURCE_SHA256="0" * 64
    )
    _assert_degrades_to_reference(
        monkeypatch,
        stand_in,
        f"source hash {_checked_out_hash()[:12]}",
        "built from 000000000000",
    )


def test_an_unstamped_extension_degrades(monkeypatch):
    """A build that predates the stamp cannot vouch for its source."""
    stand_in = types.SimpleNamespace(setup=lambda spec: None, Core=_Core)
    _assert_degrades_to_reference(monkeypatch, stand_in, "built from unstamped")


def test_an_extension_whose_core_lacks_an_attribute_degrades(monkeypatch):
    """``setup()`` passes, the stamp (a forged one, here) matches, and the
    first ``NativeSimulator()`` would have died with ``AttributeError:
    'repro._native.Core' object has no attribute 'seq'``."""
    stand_in = types.SimpleNamespace(
        setup=lambda spec: None,
        Core=_CoreWithoutSeq,
        SOURCE_SHA256=_checked_out_hash(),
    )
    _assert_degrades_to_reference(monkeypatch, stand_in, "no attribute 'seq'")


@pytest.mark.skipif(not native.available(), reason="extension not built")
def test_the_built_extension_carries_the_checked_out_hash():
    assert native._native.SOURCE_SHA256 == _checked_out_hash()


@pytest.mark.skipif(not native.available(), reason="extension not built")
def test_pool_off_is_bit_identical_across_backends():
    """packet_pool=False must not disturb the compiled pool/rx paths."""
    prints = {}
    for backend in ("reference", "native"):
        config = AlewifeConfig(
            **_TINY_CONFIG, packet_pool=False, backend=backend
        )
        stats = run_experiment(config, WeatherWorkload(iterations=2))
        prints[backend] = equivalence_fingerprint(stats)
    assert prints["native"] == prints["reference"]


def test_cli_run_accepts_backend_native():
    result = _subprocess(
        "import sys; from repro.cli import main; "
        "sys.exit(main(['run', '--workload', 'weather', '--protocol', "
        "'fullmap', '--procs', '4', '--iterations', '1', "
        "'--backend', 'native']))"
    )
    assert result.returncode == 0, result.stderr
    assert "backend:" in result.stdout
    expected = (
        "compiled kernels active"
        if native.available()
        else "running reference fallback"
    )
    assert expected in result.stdout


def test_cli_profile_accepts_backend_native():
    result = _subprocess(
        "import sys; from repro.profiling.cli import main; "
        "sys.exit(main(['--workload', 'weather', '--protocol', 'fullmap', "
        "'--procs', '4', '--iterations', '1', '--alloc-top', '0', "
        "'--top', '3', '--backend', 'native']))"
    )
    assert result.returncode == 0, result.stderr
    assert "native backend" in result.stdout
    if native.available():
        # compiled time is attributed to one labeled component instead
        # of vanishing from the cProfile tree
        assert "backend.native" in result.stdout
        # ... and a single-context run never hands an op back to Python
        assert "processor-step fall-throughs to Python: 0" in result.stdout
    else:
        assert "fall-throughs" not in result.stdout


def test_serve_metrics_reports_native_backend_block(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    from repro.serve import SweepService
    from repro.sweep import ResultCache

    service = SweepService(
        workers=1,
        cache=ResultCache(tmp_path / "cache"),
        queue_depth=4,
        executor_factory=lambda workers: ThreadPoolExecutor(
            max_workers=workers
        ),
    )
    try:
        record = service.submit_payload(
            {
                "config": {
                    "n_procs": 4,
                    "protocol": "fullmap",
                    "max_cycles": 2_000_000,
                    "backend": "native",
                },
                "workload": {"name": "hotspot", "params": {"rounds": 2}},
            }
        )
        assert record.wait(60)
        snapshot = service.metrics_snapshot()
    finally:
        service.close()
    block = snapshot["backends"]["native"]
    assert block["points"] == 1
    assert block["cycles"] > 0

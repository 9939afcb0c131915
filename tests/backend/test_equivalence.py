"""Backend-equivalence golden tier.

The ``soa`` backend's contract is *bit-identical* observable behaviour:
same cycles, counters, histograms, and network statistics as the
pure-Python reference on every committed scenario.  The digests below
pin :func:`repro.backend.equivalence_fingerprint` (MachineStats minus
the backend-carrying ``config``) for
both backends at once — a mismatch on either backend means simulated
behaviour changed, exactly the regression the sweep result cache and the
recovery digests cannot tolerate.

The matrix deliberately crosses the axes where the SoA layout differs
most from the reference object model: all three protocols (fullmap's
dense bitmasks, dir4nb's pointer eviction, limitless's software
extension with its PointerSet-into-set merges), a second workload shape
and nonzero fault injection (RNG interleaving).
"""

from __future__ import annotations

import pytest

from repro import AlewifeConfig, run_experiment
from repro.backend import backend_names, equivalence_fingerprint
from repro.recover.checkpoint import run_with_checkpoints
from repro.recover.snapshot import list_snapshots, read_snapshot
from repro.sweep.spec import WorkloadSpec
from repro.workloads import MultigridWorkload, WeatherWorkload

#: scenario -> (config kwargs sans backend, workload factory)
SCENARIOS = {
    "weather-fullmap-p16": (
        dict(n_procs=16, protocol="fullmap"),
        lambda: WeatherWorkload(iterations=3),
    ),
    "weather-limited4-p16": (
        dict(n_procs=16, protocol="limited", pointers=4),
        lambda: WeatherWorkload(iterations=3),
    ),
    "weather-limitless4-p16": (
        dict(n_procs=16, protocol="limitless", pointers=4, ts=50),
        lambda: WeatherWorkload(iterations=3),
    ),
    "multigrid-limitless4-p16": (
        dict(n_procs=16, protocol="limitless", pointers=4, ts=50),
        lambda: MultigridWorkload(levels=(2, 2), points_per_proc=16),
    ),
    "weather-limitless4-faults-p16": (
        dict(
            n_procs=16,
            protocol="limitless",
            pointers=4,
            ts=50,
            fault_drop_rate=0.01,
            fault_delay_rate=0.01,
        ),
        lambda: WeatherWorkload(iterations=3),
    ),
}

#: digests recorded from the reference backend at the PR that introduced
#: the backend seam; the soa backend must reproduce them bit-for-bit.
GOLDEN_FINGERPRINTS = {
    "weather-fullmap-p16": (
        "325d0e3159c9544b96299b01eb89dd8c05c32501876fe6ef92a9648b6a7041d7"
    ),
    "weather-limited4-p16": (
        "23205a91337c3e36f3b918569bcbf42bc95a29f476889ecf84541af024fe4dfa"
    ),
    "weather-limitless4-p16": (
        "b19f01406ee72f8cee763fa06a4332c34a67b6bf6bf82eca2e89f83548a1e0a9"
    ),
    "multigrid-limitless4-p16": (
        "d60ca958e0f2af02ff1980be09102540106113be82aeb2d880f9dc2f9ce135bb"
    ),
    "weather-limitless4-faults-p16": (
        "e3609960d35c3f6d3ac31b0c1d641611d1659235899f098a89433750b2f17295"
    ),
}


def _run(name: str, backend: str):
    config_kw, workload_factory = SCENARIOS[name]
    config = AlewifeConfig(**config_kw, backend=backend)
    return run_experiment(config, workload_factory())


@pytest.mark.parametrize("backend", backend_names())
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_equivalence_fingerprints(name, backend):
    stats = _run(name, backend)
    assert equivalence_fingerprint(stats) == GOLDEN_FINGERPRINTS[name], (
        f"{name} on the {backend} backend no longer matches the committed "
        f"equivalence golden — a layout or kernel change altered observable "
        f"simulation results"
    )


class TestCheckpointsAcrossBackends:
    """Recovery digests are backend-independent state, not layout state."""

    def _checkpoints(self, backend, tmp_path):
        out = tmp_path / backend
        config = AlewifeConfig(n_procs=16, protocol="fullmap", backend=backend)
        stats = run_with_checkpoints(
            config,
            WorkloadSpec("weather", {"iterations": 6}),
            every=500,
            out_dir=out,
        )
        snaps = [read_snapshot(p) for p in list_snapshots(out)]
        assert snaps, "run too short to produce checkpoints"
        return stats, snaps

    def test_digests_match_and_soa_resumes_from_reference_timeline(
        self, tmp_path
    ):
        ref_stats, ref_snaps = self._checkpoints("reference", tmp_path)
        soa_stats, soa_snaps = self._checkpoints("soa", tmp_path)
        assert equivalence_fingerprint(ref_stats) == equivalence_fingerprint(
            soa_stats
        )
        assert [s.cycle for s in ref_snaps] == [s.cycle for s in soa_snaps]
        # state_digest covers machine state only (not config), so the two
        # backends must agree snapshot-for-snapshot.
        assert [s.digest for s in ref_snaps] == [s.digest for s in soa_snaps]

    def test_soa_resume_reproduces_the_full_run(self, tmp_path):
        from repro.recover.checkpoint import resume_run

        full_stats, snaps = self._checkpoints("soa", tmp_path)
        middle = snaps[len(snaps) // 2]
        path = _snapshot_path(tmp_path / "soa", middle.cycle)
        stats = resume_run(path)
        assert equivalence_fingerprint(stats) == equivalence_fingerprint(
            full_stats
        )

    def test_native_digests_match_reference_timeline(self, tmp_path):
        # Whether the extension is built (compiled kernels) or not (soa
        # fallback), backend="native" must produce the reference
        # snapshot timeline digest-for-digest.
        ref_stats, ref_snaps = self._checkpoints("reference", tmp_path)
        nat_stats, nat_snaps = self._checkpoints("native", tmp_path)
        assert equivalence_fingerprint(ref_stats) == equivalence_fingerprint(
            nat_stats
        )
        assert [s.cycle for s in ref_snaps] == [s.cycle for s in nat_snaps]
        assert [s.digest for s in ref_snaps] == [s.digest for s in nat_snaps]

    def test_native_resume_reproduces_the_full_run(self, tmp_path):
        from repro.recover.checkpoint import resume_run

        full_stats, snaps = self._checkpoints("native", tmp_path)
        middle = snaps[len(snaps) // 2]
        path = _snapshot_path(tmp_path / "native", middle.cycle)
        stats = resume_run(path)
        assert equivalence_fingerprint(stats) == equivalence_fingerprint(
            full_stats
        )


def _snapshot_path(directory, cycle):
    for path in list_snapshots(directory):
        if read_snapshot(path).cycle == cycle:
            return path
    raise AssertionError(f"no snapshot at cycle {cycle} in {directory}")

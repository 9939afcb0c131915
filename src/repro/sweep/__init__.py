"""Parallel sweep runner with content-addressed result caching.

The paper's evaluation is a grid of scheme x workload x parameter
experiments; this package runs such grids over a process pool, caches
every deterministic result on disk keyed by (config, workload spec,
source fingerprint), and reproduces the figure reports, checking each
figure's claims on the paper's 64-processor machine.  See
``repro sweep --help`` for the CLI.
"""

from .cache import (
    ResultCache,
    SourceFingerprint,
    compute_source_fingerprint,
    default_cache_dir,
    source_fingerprint,
)
from .grids import (
    CLAIMS_PROCS,
    FIGURE_CLAIMS,
    check_claims,
    figure_grids,
    run_figure_suite,
)
from .runner import JobResult, ProgressPrinter, ProgressTracker, run_jobs
from .spec import (
    SCALED_WORKLOADS,
    WORKLOAD_REGISTRY,
    Job,
    WorkloadSpec,
    job_key,
    scaled_workload,
)

__all__ = [
    "CLAIMS_PROCS",
    "FIGURE_CLAIMS",
    "Job",
    "JobResult",
    "ProgressPrinter",
    "ProgressTracker",
    "ResultCache",
    "SCALED_WORKLOADS",
    "SourceFingerprint",
    "WORKLOAD_REGISTRY",
    "WorkloadSpec",
    "check_claims",
    "compute_source_fingerprint",
    "default_cache_dir",
    "figure_grids",
    "job_key",
    "run_figure_suite",
    "run_jobs",
    "scaled_workload",
    "source_fingerprint",
]

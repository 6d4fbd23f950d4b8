"""``repro.perf`` — baseline-gated performance observability.

The benchmark layer that turns the observability stack (``repro.obs``)
into a *regression-proof trajectory*: deterministic workload specs
(ingest / query / compact / obs-overhead / serve) are run under a
recording stack, summarized into a small set of metrics, persisted as
committed baselines (``results/baselines/<workload>.json``, written
through :func:`repro.bench.results.emit` with units and the git SHA),
and re-checked by ``carp perf compare`` on every CI run.

Every metric is an exact workload output (bytes written, records
matched, renegotiations, digests) or an ``IOModel`` cost-model output
(modeled query and serve latency).  Both are deterministic given the
code, so every row is compared by equality and any change blocks.

Nothing here reads the host clock (rule O501 covers this package):
wall time has one owner, the top-level ``ledger/``, and scalar ≡
vector kernel equivalence has one owner, ``tests/kernels/``.
"""

from repro.perf.harness import (
    Metric,
    MetricComparison,
    WorkloadComparison,
    compare_workload,
    load_baseline,
    run_workload,
    write_baseline,
)
from repro.perf.workloads import WORKLOADS, WorkloadSpec

__all__ = [
    "Metric",
    "MetricComparison",
    "WorkloadComparison",
    "WORKLOADS",
    "WorkloadSpec",
    "compare_workload",
    "load_baseline",
    "run_workload",
    "write_baseline",
]

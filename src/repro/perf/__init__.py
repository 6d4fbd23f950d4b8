"""``repro.perf`` — baseline-gated performance observability.

The benchmark layer that turns the observability stack (``repro.obs``)
and the executor seam (``repro.exec``) into a *regression-proof
trajectory*: deterministic workload specs (ingest / query / compact ×
executor backend) are run under a recording stack, summarized into a
small set of metrics, persisted as committed baselines
(``results/baselines/<workload>.json``, written through
:func:`repro.bench.results.emit` with units and the git SHA), and
re-checked by ``carp-perf compare`` on every CI run.

Metrics come in two kinds, both deterministic and both blocking:

* ``virtual`` — modeled/virtual-time cost (deterministic given the
  code).  Blocking: a relative regression beyond the metric's
  tolerance fails the comparison.
* ``exact`` — workload outputs that must not drift at all (bytes
  written, records matched).  Blocking: any change fails.

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

"""The paper's ``range-reader`` artifact (A5) as plain functions.

``carp range-reader`` has three modes; two of them live here, as
functions over an open :class:`PartitionedStore`:

* **analyze** (``-a``) — :func:`analyze_store`: basic statistics of a
  partitioned store and per-probe selectivity at points of the
  keyspace,
* **batch** (``-b batch.csv``) — :func:`run_batch`: a CSV of
  ``epoch,query_begin,query_end`` rows executed in order, with
  aggregated stats and a per-query log (the artifact's
  ``querylog.csv``).

Query mode (``-q -x lo -y hi``) is one :meth:`PartitionedStore.query`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.query.engine import PartitionedStore, QueryResult
from repro.query.metrics import selectivity_profile


@dataclass(frozen=True)
class StoreAnalysis:
    """Output of analyze mode."""

    epochs: tuple[int, ...]
    total_records: int
    total_bytes: int
    ssts: int
    probe_keys: tuple[float, ...]
    probe_selectivity: tuple[float, ...]

    @property
    def median_selectivity(self) -> float:
        return float(np.median(self.probe_selectivity))


@dataclass(frozen=True)
class BatchQuerySpec:
    epoch: int
    lo: float
    hi: float


@dataclass
class BatchResult:
    """Aggregated outcome of a query batch."""

    results: list[QueryResult]

    @property
    def total_latency(self) -> float:
        return sum(r.cost.latency for r in self.results)

    @property
    def total_matched(self) -> int:
        return sum(len(r) for r in self.results)

    @property
    def total_bytes_read(self) -> int:
        return sum(r.cost.bytes_read for r in self.results)


def analyze_store(
    store: PartitionedStore, epoch: int | None = None, probes: int = 9
) -> StoreAnalysis:
    """Analysis mode: store stats + selectivity at keyspace probes.

    ``epoch=None`` analyzes the first stored epoch.
    """
    epochs = store.epochs()
    if not epochs:
        raise ValueError("store holds no epochs")
    target = epochs[0] if epoch is None else epoch
    lo, hi = store.key_range(target)
    # probes are uniform in key space — evenly spaced strictly inside
    # the epoch's [kmin, kmax] — not at data quantiles
    probe_keys = np.linspace(lo, hi, probes + 2)[1:-1]
    sel = selectivity_profile(store, target, probe_keys)
    return StoreAnalysis(
        epochs=tuple(epochs),
        total_records=store.total_records(target),
        total_bytes=store.total_bytes(target),
        ssts=len(store.entries(target)),
        probe_keys=tuple(float(k) for k in probe_keys),
        probe_selectivity=tuple(float(s) for s in sel),
    )


def run_batch(
    store: PartitionedStore,
    queries: list[BatchQuerySpec],
    log_path: Path | str | None = None,
) -> BatchResult:
    """Batch mode: run queries in order; optionally write querylog.csv.

    Every row's epoch is checked first (:meth:`PartitionedStore.
    resolve_epoch`), so a batch naming an epoch the store does not hold
    raises :class:`ValueError` before any query runs.
    """
    for q in queries:
        store.resolve_epoch(q.epoch)
    batch = BatchResult([store.query(q.epoch, q.lo, q.hi) for q in queries])
    if log_path is not None:
        write_query_log(batch.results, log_path)
    return batch


def read_batch_csv(path: Path | str) -> list[BatchQuerySpec]:
    """Parse the artifact's batch format: ``epoch,query_begin,query_end``."""
    out: list[BatchQuerySpec] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            if len(row) != 3:
                raise ValueError(f"bad batch row: {row!r}")
            out.append(BatchQuerySpec(int(row[0]), float(row[1]), float(row[2])))
    return out


def write_batch_csv(queries: list[BatchQuerySpec], path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for q in queries:
            writer.writerow([q.epoch, repr(q.lo), repr(q.hi)])


def write_query_log(results: list[QueryResult], path: Path | str) -> None:
    """Write the artifact-style per-query log (``querylog.csv``)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "lo", "hi", "matched", "ssts_read", "bytes_read",
             "read_time_s", "merge_time_s", "latency_s"]
        )
        for r in results:
            writer.writerow(
                [r.epoch, repr(r.lo), repr(r.hi), len(r), r.cost.ssts_read,
                 r.cost.bytes_read, f"{r.cost.read_time:.6f}",
                 f"{r.cost.merge_time:.6f}", f"{r.cost.latency:.6f}"]
            )

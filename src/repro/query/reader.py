"""RangeReader: the paper's ``range-reader`` artifact (A5) as a library.

Three modes, mirroring the artifact's CLI:

* **analyze** (``-a``) — basic statistics of a partitioned store:
  per-probe selectivity at different points in the keyspace,
* **query** (``-q -x lo -y hi``) — one range query with timing,
* **batch** (``-b batch.csv``) — a CSV of ``epoch,query_begin,query_end``
  rows executed in order, with aggregated stats and a per-query log
  (the artifact's ``querylog.csv``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.query.engine import PartitionedStore
from repro.query.metrics import selectivity_profile
from repro.query.request import (
    LIVE_TOKEN,
    QueryRequest,
    QueryResponse,
    response_from_result,
)
from repro.sim.iomodel import IOModel


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

    results: list[QueryResponse]

    @property
    def total_latency(self) -> float:
        return sum(r.cost.latency for r in self.results)

    @property
    def total_matched(self) -> int:
        return sum(len(r) for r in self.results)

    @property
    def total_bytes_read(self) -> int:
        return sum(r.cost.bytes_read for r in self.results)


class RangeReader:
    """Query client over a partitioned (CARP or sorted) store.

    Pass either ``directory`` (the reader opens its own
    :class:`PartitionedStore`) or ``store=`` to wrap one the caller
    already holds — wrapping shares the open log handles and parsed
    manifests instead of duplicating them per client, and leaves the
    store's lifetime with its owner (``close`` is then a no-op).
    """

    def __init__(
        self,
        directory: Path | str | None = None,
        io: IOModel | None = None,
        store: PartitionedStore | None = None,
    ) -> None:
        if (directory is None) == (store is None):
            raise ValueError("pass exactly one of directory= or store=")
        if store is not None:
            if io is not None:
                raise ValueError("io= belongs to the wrapped store's owner")
            self.store = store
            self._owns_store = False
        else:
            assert directory is not None
            self.store = PartitionedStore(directory, io=io)
            self._owns_store = True

    def close(self) -> None:
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "RangeReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def analyze(self, epoch: int | None = None, probes: int = 9) -> StoreAnalysis:
        """Analysis mode: store stats + selectivity at keyspace probes."""
        epochs = self.store.epochs()
        if not epochs:
            raise ValueError("store holds no epochs")
        target = epochs[0] if epoch is None else epoch
        lo, hi = self.store.key_range(target)
        # probes are uniform in key space — evenly spaced strictly
        # inside the epoch's [kmin, kmax] — not at data quantiles
        probe_keys = np.linspace(lo, hi, probes + 2)[1:-1]
        sel = selectivity_profile(self.store, target, probe_keys)
        return StoreAnalysis(
            epochs=tuple(epochs),
            total_records=self.store.total_records(target),
            total_bytes=self.store.total_bytes(target),
            ssts=len(self.store.entries(target)),
            probe_keys=tuple(float(k) for k in probe_keys),
            probe_selectivity=tuple(float(s) for s in sel),
        )

    def request(self, req: QueryRequest) -> QueryResponse:
        """Execute one typed :class:`QueryRequest` (the canonical form).

        ``epoch=None`` resolves to the newest epoch the wrapped store
        sees (its snapshot's newest, for a pinned store).  The reply
        carries the store's snapshot token when pinned,
        :data:`~repro.query.request.LIVE_TOKEN` otherwise.
        """
        req.validate()
        snapshot = self.store.snapshot
        token = snapshot.token if snapshot is not None else LIVE_TOKEN
        result = self.store.query(
            self.store.resolve_epoch(req.epoch), req.lo, req.hi,
            keys_only=req.keys_only,
        )
        return response_from_result(req, "", token, result)

    def run_batch(
        self,
        queries: list[BatchQuerySpec],
        log_path: Path | str | None = None,
    ) -> BatchResult:
        """Batch mode: run queries in order; optionally write querylog.csv."""
        results = [
            self.request(QueryRequest(lo=q.lo, hi=q.hi, epoch=q.epoch))
            for q in queries
        ]
        batch = BatchResult(results)
        if log_path is not None:
            write_query_log(results, log_path)
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


def write_query_log(results: list[QueryResponse], path: Path | str) -> None:
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

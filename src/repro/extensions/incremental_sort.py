"""Query-path incremental sorting (paper §VIII, "Indexing Techniques").

The paper suggests that CARP's approximately sorted output "can be
incrementally converted into a fully sorted layout on the query path by
writing back the merged SSTs that are computed for user queries".

:class:`IncrementalSorter` implements that: each range query's merged,
sorted result is written back into a side log as key-disjoint sorted
SSTs, and the covered key interval is remembered.  Subsequent queries
that fall inside an already-merged interval are served from the side
log alone — no overlapping runs, hence no merge cost — so the layout
converges toward fully sorted as the query workload explores the
keyspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.records import RecordBatch, range_mask
from repro.query.engine import PartitionedStore, QueryResult
from repro.sim.iomodel import IOModel
from repro.storage.log import LogWriter, log_name


@dataclass
class Interval:
    """A closed key interval already materialized as sorted SSTs."""

    lo: float
    hi: float

    def covers(self, lo: float, hi: float) -> bool:
        return self.lo <= lo and hi <= self.hi

    def overlaps(self, lo: float, hi: float) -> bool:
        return self.lo <= hi and lo <= self.hi


class IntervalSet:
    """A set of merged key intervals, coalesced on insert."""

    def __init__(self) -> None:
        self._intervals: list[Interval] = []

    def __len__(self) -> int:
        return len(self._intervals)

    def covering(self, lo: float, hi: float) -> Interval | None:
        for iv in self._intervals:
            if iv.covers(lo, hi):
                return iv
        return None

    def add(self, lo: float, hi: float) -> None:
        keep = []
        for iv in self._intervals:
            if iv.overlaps(lo, hi):
                lo = min(lo, iv.lo)
                hi = max(hi, iv.hi)
            else:
                keep.append(iv)
        keep.append(Interval(lo, hi))
        keep.sort(key=lambda iv: iv.lo)
        self._intervals = keep

    def coverage_fraction(self, lo: float, hi: float) -> float:
        """Fraction of ``[lo, hi]`` covered by merged intervals."""
        if hi <= lo:
            return 1.0
        covered = 0.0
        for iv in self._intervals:
            covered += max(0.0, min(hi, iv.hi) - max(lo, iv.lo))
        return covered / (hi - lo)


class IncrementalSorter:
    """A query client that converges CARP output to a sorted layout."""

    def __init__(
        self,
        base_dir: Path | str,
        side_dir: Path | str,
        io: IOModel | None = None,
        sst_records: int = 4096,
    ) -> None:
        self.base = PartitionedStore(base_dir, io=io)
        self.side_dir = Path(side_dir)
        self.side_dir.mkdir(parents=True, exist_ok=True)
        self.io = io or IOModel()
        self.sst_records = sst_records
        self._merged: dict[int, IntervalSet] = {}
        self._writers: dict[int, LogWriter] = {}
        self._side_store: PartitionedStore | None = None
        self.writeback_bytes = 0
        self.served_from_side = 0
        self.served_from_base = 0

    def close(self) -> None:
        self.base.close()
        if self._side_store is not None:
            self._side_store.close()
        for w in self._writers.values():
            w.close()

    def __enter__(self) -> "IncrementalSorter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _intervals(self, epoch: int) -> IntervalSet:
        return self._merged.setdefault(epoch, IntervalSet())

    def query(self, epoch: int, lo: float, hi: float) -> QueryResult:
        """Serve a range query, writing merged results back.

        Queries inside an already-merged interval hit the sorted side
        log; everything else is answered by the base CARP store and its
        merged result materialized for the future.
        """
        intervals = self._intervals(epoch)
        if intervals.covering(lo, hi) is not None and self._side_store is not None:
            self.served_from_side += 1
            return self._side_store.query(epoch, lo, hi)

        self.served_from_base += 1
        result = self.base.query(epoch, lo, hi)
        if len(result):
            # write back only keys not already materialized, so coalesced
            # intervals never hold duplicate records
            fresh = np.ones(len(result.keys), dtype=bool)
            for iv in intervals._intervals:
                fresh &= ~range_mask(result.keys, iv.lo, iv.hi)
            self._write_back(epoch, result.keys[fresh], result.rids[fresh])
            intervals.add(lo, hi)
        return result

    def _write_back(self, epoch: int, keys: np.ndarray, rids: np.ndarray) -> None:
        """Append the merged (sorted) result to the side log."""
        if len(keys) == 0:
            return
        writer = self._writers.get(epoch)
        if writer is None:
            writer = LogWriter(self.side_dir / log_name(epoch))
            self._writers[epoch] = writer
        batch = RecordBatch(keys, rids, value_size=8)
        n = len(batch)
        for start in range(0, n, self.sst_records):
            chunk = batch.select(slice(start, start + self.sst_records))
            entry = writer.append_batch(chunk, epoch, sort=True)
            self.writeback_bytes += entry.length
        writer.flush_epoch(epoch)
        # reopen the side store so new SSTs become visible
        if self._side_store is not None:
            self._side_store.close()
        self._side_store = PartitionedStore(self.side_dir, io=self.io)

    def merge_cost_saved(self, epoch: int, lo: float, hi: float) -> bool:
        """Whether a query on ``[lo, hi]`` would skip merging entirely."""
        return self._intervals(epoch).covering(lo, hi) is not None

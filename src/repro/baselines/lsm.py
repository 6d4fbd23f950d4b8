"""LSM-tree baseline: the "DB indexes" row of Table I.

The paper's background (§II) rules out database indexes for in-situ
scientific ingest because, while they maintain key order online (good
range queries), they *reorganize on-disk data* to do it: leveled
LSM-trees re-write each record many times as it migrates down the
levels — measured write amplification of 19-37x for write-optimized
single-node stores [PebblesDB], far above the 2-3x of post-processing
and CARP's 1x.

This module implements a real, if compact, leveled LSM-tree over the
same SSTable/log substrate as KoiDB:

* inserts buffer in a memtable; full memtables flush to level 0,
* level 0 allows overlapping SSTs; levels >= 1 are sorted runs of
  key-disjoint SSTs with capacity ``growth_factor ** level`` SSTs,
* when a level overflows, its data is merged with the overlapping part
  of the next level and re-written (the write amplification source),
* range queries merge the memtable, L0 SSTs, and one candidate run per
  deeper level — efficient, like any sorted index.

Bytes written are tracked exactly, so the WAF the paper cites becomes a
measured quantity here (see ``tests/baselines/test_lsm.py`` and the
Table I benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.records import RecordBatch, range_mask
from repro.sim.iomodel import IOModel


@dataclass
class LSMStats:
    """Write-path accounting for the LSM-tree."""

    records_in: int = 0
    user_bytes: int = 0
    bytes_written: int = 0
    compactions: int = 0
    ssts_written: int = 0

    @property
    def write_amplification(self) -> float:
        """Total bytes written / user bytes ingested (the paper's WAF)."""
        if self.user_bytes == 0:
            return 0.0
        return self.bytes_written / self.user_bytes


@dataclass
class _SST:
    """An in-memory handle to one (conceptually on-disk) sorted SST."""

    batch: RecordBatch  # sorted by key

    @property
    def kmin(self) -> float:
        return float(self.batch.keys[0])

    @property
    def kmax(self) -> float:
        return float(self.batch.keys[-1])

    @property
    def nbytes(self) -> int:
        return self.batch.nbytes

    def overlaps(self, lo: float, hi: float) -> bool:
        return self.kmin <= hi and self.kmax >= lo


class LSMTree:
    """A leveled LSM-tree with measured write amplification.

    ``sst_records`` bounds SST size; level ``i >= 1`` holds at most
    ``level0_ssts * growth_factor ** i`` SSTs before it spills into
    level ``i + 1``.
    """

    def __init__(
        self,
        sst_records: int = 4096,
        level0_ssts: int = 4,
        growth_factor: int = 4,
        value_size: int = 56,
    ) -> None:
        if sst_records < 1 or level0_ssts < 1 or growth_factor < 2:
            raise ValueError("invalid LSM geometry")
        self.sst_records = sst_records
        self.level0_ssts = level0_ssts
        self.growth_factor = growth_factor
        self.value_size = value_size
        self._memtable: list[RecordBatch] = []
        self._mem_count = 0
        #: levels[0] = L0 (overlapping); levels[i>=1] = key-disjoint runs
        self.levels: list[list[_SST]] = [[]]
        self.stats = LSMStats()

    # -------------------------------------------------------------- write

    def insert(self, batch: RecordBatch) -> None:
        """Buffer records; flush/compact as capacities overflow."""
        if len(batch) == 0:
            return
        if batch.value_size != self.value_size:
            raise ValueError("batch value_size does not match tree")
        self.stats.records_in += len(batch)
        self.stats.user_bytes += batch.nbytes
        self._memtable.append(batch)
        self._mem_count += len(batch)
        while self._mem_count >= self.sst_records:
            self._flush_memtable()

    def flush(self) -> None:
        """Flush any buffered records (end of ingest)."""
        if self._mem_count:
            self._flush_memtable(partial=True)

    def _flush_memtable(self, partial: bool = False) -> None:
        data = RecordBatch.concat(self._memtable)
        take = len(data) if partial else self.sst_records
        chunk = data.select(slice(take)).sorted_by_key()
        rest = data.select(slice(take, None))
        self._memtable = [rest] if len(rest) else []
        self._mem_count = len(rest)
        self._write_sst(_SST(chunk), level=0)
        self._maybe_compact(0)

    def _write_sst(self, sst: _SST, level: int) -> None:
        while len(self.levels) <= level:
            self.levels.append([])
        self.levels[level].append(sst)
        self.stats.bytes_written += sst.nbytes
        self.stats.ssts_written += 1

    def _capacity(self, level: int) -> int:
        if level == 0:
            return self.level0_ssts
        return self.level0_ssts * self.growth_factor ** level

    def _maybe_compact(self, level: int) -> None:
        while len(self.levels[level]) > self._capacity(level):
            self._compact_into(level)
            level += 1
            if level >= len(self.levels):
                break

    def _compact_into(self, level: int) -> None:
        """Merge all of ``level`` plus the overlapping next-level SSTs
        into fresh key-disjoint SSTs at ``level + 1``."""
        self.stats.compactions += 1
        moving = self.levels[level]
        self.levels[level] = []
        if not moving:
            return
        lo = min(s.kmin for s in moving)
        hi = max(s.kmax for s in moving)
        while len(self.levels) <= level + 1:
            self.levels.append([])
        nxt = self.levels[level + 1]
        overlapping = [s for s in nxt if s.overlaps(lo, hi)]
        keep = [s for s in nxt if not s.overlaps(lo, hi)]
        merged = RecordBatch.concat(
            [s.batch for s in moving] + [s.batch for s in overlapping]
        ).sorted_by_key()
        self.levels[level + 1] = keep
        for start in range(0, len(merged), self.sst_records):
            chunk = merged.select(slice(start, start + self.sst_records))
            self._write_sst(_SST(chunk), level + 1)
        self.levels[level + 1].sort(key=lambda s: s.kmin)

    # --------------------------------------------------------------- read

    def query(
        self, lo: float, hi: float, io: IOModel | None = None
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Range query; returns (keys, rids, modeled latency).

        Reads the memtable, every overlapping L0 SST, and the
        overlapping SSTs of each deeper run — the multi-run read cost
        that makes LSM range queries slower than a single sorted run,
        but still far better than a scan.
        """
        if hi < lo:
            raise ValueError(f"empty query range [{lo}, {hi}]")
        io = io or IOModel()
        pieces: list[RecordBatch] = []
        bytes_read = 0
        requests = 0
        for batch in self._memtable:
            mask = range_mask(batch.keys, lo, hi)
            if mask.any():
                pieces.append(batch.select(mask))
        for level_ssts in self.levels:
            for sst in level_ssts:
                if not sst.overlaps(lo, hi):
                    continue
                bytes_read += sst.nbytes
                requests += 1
                mask = range_mask(sst.batch.keys, lo, hi)
                if mask.any():
                    pieces.append(sst.batch.select(mask))
        if pieces:
            merged = RecordBatch.concat(pieces).sorted_by_key()
            keys, rids = merged.keys, merged.rids
        else:
            keys = np.empty(0, np.float32)
            rids = np.empty(0, np.uint64)
        latency = io.read_time(bytes_read, requests) + io.merge_time(bytes_read)
        return keys, rids, latency

    # ---------------------------------------------------------- inspect

    @property
    def total_records(self) -> int:
        return self._mem_count + sum(
            len(s.batch) for level in self.levels for s in level
        )

    @property
    def depth(self) -> int:
        return sum(1 for level in self.levels if level)

    def check_invariants(self) -> None:
        """Structural invariants: levels >= 1 are key-disjoint and sorted."""
        for i, level in enumerate(self.levels[1:], start=1):
            for a, b in zip(level, level[1:]):
                if a.kmax > b.kmin:
                    raise AssertionError(f"level {i} runs overlap")


def ingestion_throughput(
    waf: float, storage_bandwidth: float
) -> float:
    """Effective ingest throughput of an online index with a given WAF.

    With every user byte costing ``waf`` storage bytes, the application
    ingests at ``storage_bandwidth / waf`` — why a WAF-19 store cannot
    compete with CARP's WAF-1 pipeline on a storage-bound workflow.
    """
    if waf <= 0 or storage_bandwidth <= 0:
        raise ValueError("waf and storage_bandwidth must be positive")
    return storage_bandwidth / waf

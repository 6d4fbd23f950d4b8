"""CARP runtime configuration.

Collects every tunable the paper exposes (pivot count, renegotiation
interval, OOB buffer capacity, KoiDB memtable size, subpartitioning
factor, ...) into one validated dataclass so experiments can sweep them
declaratively.  Defaults follow §VI of the paper (512 pivots, 512-entry
OOB buffers, 12 MB memtables, reduction-tree fanout 64).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.records import PAPER_VALUE_SIZE


@dataclass(frozen=True)
class CarpOptions:
    """Tunable parameters of a CARP run.

    Attributes
    ----------
    pivot_count:
        Number of equal-mass intervals each rank's pivot set encodes
        (paper sweeps 64-2048; 512 is the recommended default).
    oob_capacity:
        Out-Of-Bounds buffer capacity in records per rank (paper: a
        capacity of 512-1024 items is "sufficiently effective").
    renegotiations_per_epoch:
        Periodic rebalance-trigger frequency (paper sweeps 2x-26x per
        epoch; gains diminish beyond ~6x).
    memtable_records:
        KoiDB memtable capacity in records, and so the size of the
        SSTs a flush writes.  The paper uses two 12 MB memtables per
        rank (= ~200K 60-byte records); the default, 16,384, won a
        measured sweep of 4K-64K on the wall-clock query and ingest
        workloads (``docs/PERFORMANCE.md``, "Keys-first probes and SST
        format v3"); tests use far smaller values for speed.
    subpartitions:
        KoiDB subpartitioning factor: each memtable flush is split into
        this many smaller key-disjoint SSTs (1 = disabled; paper
        evaluates 2- and 4-way).
    separate_strays:
        KoiDB repartitioning optimization — route mis-delivered (stray)
        keys into dedicated stray SSTs instead of polluting the main
        SSTs' key ranges (paper §V-D, up to 48x selectivity gain).
    shuffle_delay_rounds:
        Simulated in-flight delay of the shuffle fabric, in ingestion
        rounds.  Non-zero delay is what creates stray keys when a
        renegotiation lands between dispatch and delivery.
    round_records:
        Records each rank ingests per simulation round.
    value_size:
        Payload bytes per record (paper: 56).
    sort_ssts:
        Whether KoiDB sorts SST contents by key at compaction time
        (paper: optional; sorted SSTs make query-time merging cheaper).
    warm_start:
        Begin each epoch with the previous epoch's final partition
        table instead of bootstrapping from scratch (the paper
        bootstraps per epoch, §V-B; Fig. 9 shows previous-timestep
        tables fit reasonably except in high-drift phases — this option
        makes that trade explorable online).
    stats_backend:
        Summary-statistics backend each rank tracks its keys with:
        ``"histogram"`` (the paper's choice — one bin per partition),
        ``"reservoir"`` (a uniform reservoir sample), or
        ``"recency_reservoir"`` (exponentially recency-biased — better
        under intra-epoch drift).  §V-C1 notes other quantile
        estimators can be plugged in.
    reservoir_capacity:
        Keys held by the reservoir backend (ignored for histograms).
    seed:
        Seeds the reservoir statistics backends: rank ``r`` samples
        with seed ``seed * 65537 + r`` (ignored for histograms).
    """

    pivot_count: int = 512
    oob_capacity: int = 512
    renegotiations_per_epoch: int = 6
    memtable_records: int = 16384
    subpartitions: int = 1
    separate_strays: bool = True
    shuffle_delay_rounds: int = 1
    round_records: int = 2048
    value_size: int = PAPER_VALUE_SIZE
    sort_ssts: bool = True
    warm_start: bool = False
    stats_backend: str = "histogram"
    reservoir_capacity: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pivot_count < 2:
            raise ValueError(f"pivot_count must be >= 2, got {self.pivot_count}")
        if self.oob_capacity < 1:
            raise ValueError("oob_capacity must be >= 1")
        if self.renegotiations_per_epoch < 1:
            raise ValueError("renegotiations_per_epoch must be >= 1")
        if self.memtable_records < 1:
            raise ValueError("memtable_records must be >= 1")
        if self.subpartitions < 1:
            raise ValueError("subpartitions must be >= 1")
        if self.shuffle_delay_rounds < 0:
            raise ValueError("shuffle_delay_rounds must be >= 0")
        if self.round_records < 1:
            raise ValueError("round_records must be >= 1")
        if self.stats_backend not in ("histogram", "reservoir",
                                       "recency_reservoir"):
            raise ValueError(
                f"stats_backend must be 'histogram', 'reservoir' or "
                f"'recency_reservoir', got {self.stats_backend!r}"
            )
        if self.reservoir_capacity < 2:
            raise ValueError("reservoir_capacity must be >= 2")

    def with_(self, **kwargs: Any) -> "CarpOptions":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


#: Paper-faithful defaults (larger buffers; slow for unit tests).
PAPER_OPTIONS = CarpOptions(
    pivot_count=512,
    oob_capacity=512,
    renegotiations_per_epoch=6,
    memtable_records=200_000,
    subpartitions=1,
)

#: Small, fast defaults used throughout the test suite.
TEST_OPTIONS = CarpOptions(
    pivot_count=64,
    oob_capacity=64,
    renegotiations_per_epoch=4,
    memtable_records=512,
    round_records=256,
    value_size=8,
)

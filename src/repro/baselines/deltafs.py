"""DeltaFS baseline: write-optimized in-situ *hash* partitioning.

DeltaFS (Zheng et al., SC'18) intercepts application writes like CARP
does and shuffles them through the same 3-hop overlay, but routes by a
hash of the record id.  That supports efficient point queries (find a
particle by ID) with no renegotiation machinery at all — but it
destroys key locality, so a range query degenerates to a full scan of
every partition (the reason it lands in the "efficient indexing,
inefficient range querying" cell of Table I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.shuffle.flow import DelayQueue
from repro.shuffle.router import hash_route, split_by_destination
from repro.sim.iomodel import IOModel
from repro.storage.koidb import KoiDB
from repro.storage.log import LogReader, list_logs, log_rank


@dataclass
class DeltaFSEpochStats:
    """Per-epoch ingest statistics for a DeltaFS run."""

    epoch: int
    records: int = 0
    partition_loads: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))


class DeltaFSRun:
    """Hash-partitioned in-situ ingestion over the shuffle substrate.

    Reuses KoiDB for storage (with stray separation disabled — there
    is no partition table, hence no strays) so the output is queryable
    by the same engine, making the "range query = full scan" behaviour
    measurable.
    """

    def __init__(
        self, nranks: int, out_dir: Path | str, options: CarpOptions | None = None
    ) -> None:
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = nranks
        base = options or CarpOptions()
        # hash layouts have no meaningful key order or stray concept
        self.options = base.with_(separate_strays=False, subpartitions=1,
                                  sort_ssts=False)
        self.out_dir = Path(out_dir)
        self.koidbs = [KoiDB(r, self.out_dir, self.options) for r in range(nranks)]
        self.epoch_history: list[DeltaFSEpochStats] = []

    def close(self) -> None:
        for db in self.koidbs:
            db.close()

    def __enter__(self) -> "DeltaFSRun":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def ingest_epoch(self, epoch: int, streams: list[RecordBatch]) -> DeltaFSEpochStats:
        """Shuffle one epoch into hash partitions."""
        if len(streams) != self.nranks:
            raise ValueError(f"need {self.nranks} streams, got {len(streams)}")
        for db in self.koidbs:
            db.begin_epoch(epoch)
        before = [db.stats.records_in for db in self.koidbs]
        flow = DelayQueue(self.options.shuffle_delay_rounds)
        chunk = self.options.round_records
        n_rounds = max(-(-len(s) // chunk) for s in streams)
        total = 0
        for round_idx in range(n_rounds):
            for stream in streams:
                lo = round_idx * chunk
                if lo >= len(stream):
                    continue
                piece = stream.select(slice(lo, lo + chunk))
                total += len(piece)
                dests = hash_route(piece, self.nranks)
                per_dest, oob = split_by_destination(piece, dests)
                assert len(oob) == 0  # hash routing is total
                for dest, sub in per_dest.items():
                    flow.send(dest, sub)
            for msg in flow.tick():
                self.koidbs[msg.dest].ingest(msg.batch)
        for msg in flow.drain():
            self.koidbs[msg.dest].ingest(msg.batch)
        for db in self.koidbs:
            db.finish_epoch()
        stats = DeltaFSEpochStats(
            epoch=epoch,
            records=total,
            partition_loads=np.array(
                [db.stats.records_in - b for db, b in zip(self.koidbs, before)],
                dtype=np.int64,
            ),
        )
        self.epoch_history.append(stats)
        return stats


@dataclass(frozen=True)
class PointQueryResult:
    """Outcome of a DeltaFS-style point query by record id."""

    rid: int
    key: float | None
    partitions_read: int
    bytes_read: int
    latency: float

    @property
    def found(self) -> bool:
        return self.key is not None


def point_query(
    directory, nranks: int, rid: int, epoch: int | None = None,
    io: IOModel | None = None,
) -> PointQueryResult:
    """Retrieve one record by id from a hash-partitioned layout.

    This is DeltaFS's strength (paper §I-II): the hash of the id names
    exactly one partition, so only that rank's log is consulted — the
    point-query analogue of CARP's range pruning.
    """
    io = io or IOModel()
    dest = int(hash_route(
        RecordBatch(np.zeros(1, np.float32), np.array([rid], np.uint64), 8),
        nranks,
    )[0])
    bytes_read = 0
    found_key: float | None = None
    for path in list_logs(directory):
        if log_rank(path) != dest:
            continue
        with LogReader(path) as reader:
            for entry in reader.entries_for(epoch=epoch):
                batch = reader.read_sst(entry).batch
                bytes_read += entry.length
                hit = batch.rids == np.uint64(rid)
                if hit.any():
                    found_key = float(batch.keys[hit][0])
                    break
    latency = io.read_time(bytes_read, max(1, bytes_read > 0))
    return PointQueryResult(
        rid=rid, key=found_key, partitions_read=1,
        bytes_read=bytes_read, latency=latency,
    )

"""Unindexed baselines: raw (per-producer) layout and full scans.

``write_unpartitioned`` persists each rank's stream in arrival order —
the layout a plain VPIC run leaves behind.  Range queries over it must
scan everything (the Fig. 7a "full scan" reference); it is also the
substrate FastQuery builds its auxiliary index over.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.records import RecordBatch, range_mask
from repro.query.engine import PartitionedStore, QueryResult
from repro.sim.iomodel import IOModel
from repro.storage.log import LogWriter, log_name


def write_unpartitioned(
    out_dir: Path | str,
    epoch: int,
    streams: list[RecordBatch],
    sst_records: int = 4096,
) -> Path:
    """Write per-rank streams as-is (no shuffle, no sort).

    Each rank's stream becomes a KoiDB-format log of unsorted SSTs in
    arrival order, so the standard query engine and cost models apply.
    """
    out_dir = Path(out_dir)
    for rank, stream in enumerate(streams):
        with LogWriter(out_dir / log_name(rank)) as writer:
            for start in range(0, len(stream), sst_records):
                chunk = stream.select(slice(start, start + sst_records))
                writer.append_batch(chunk, epoch, sort=False)
            writer.flush_epoch(epoch)
    return out_dir


def full_scan_query(
    directory: Path | str, epoch: int, lo: float, hi: float,
    io: IOModel | None = None,
) -> QueryResult:
    """Answer a range query by scanning the entire epoch.

    Reads every SST regardless of manifest ranges — the cost an
    unindexed dataset pays for any range predicate.
    """
    with PartitionedStore(directory, io=io) as store:
        full_lo, full_hi = store.key_range(epoch)
        # force a scan of every SST by querying the full key range,
        # then filter down to the requested range
        result = store.query(epoch, min(lo, full_lo), max(hi, full_hi))
        mask = range_mask(result.keys, lo, hi)
        return QueryResult(
            lo=lo, hi=hi, epoch=epoch,
            keys=result.keys[mask], rids=result.rids[mask],
            cost=result.cost,
        )

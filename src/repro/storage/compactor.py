"""Compactor: merge CARP output into a fully sorted, clustered layout.

Mirrors the paper's artifact ``A4``: reads one epoch of CARP-partitioned
logs, merge-sorts all records globally, and writes them back out as a
single fully sorted log of fixed-size SSTables — the layout used as the
"TritonSort" query-side baseline in Fig. 7a.  The output format is
identical to KoiDB's, so the same query engine reads both.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.records import RecordBatch
from repro.exec.factory import resolve_executor
from repro.obs import NULL_OBS, RECORD_TICK, Obs
from repro.storage.log import LogReader, LogWriter, list_logs, log_name


def read_epoch(directory: Path | str, epoch: int) -> RecordBatch:
    """Load every record of ``epoch`` from all logs in ``directory``.

    Reads inline, log by log in log order, each log's SSTs in manifest
    order, and concatenates the lot.
    """
    logs = list_logs(directory)
    if not logs:
        raise FileNotFoundError(f"no KoiDB logs under {directory}")
    batches: list[RecordBatch] = []
    for path in logs:
        with LogReader(path) as reader:
            batches.extend(
                reader.read_sst(e).batch for e in reader.entries_for(epoch=epoch)
            )
    if not batches:
        raise ValueError(f"epoch {epoch} holds no data under {directory}")
    return RecordBatch.concat(batches)


def compact_epoch(
    in_dir: Path | str,
    out_dir: Path | str,
    epoch: int,
    sst_records: int = 4096,
) -> Path:
    """Produce a fully sorted clustered index for one epoch.

    Writes ``out_dir/<epoch>/RDB-00000000.tbl`` containing globally
    sorted, key-disjoint SSTables of ``sst_records`` records each (the
    paper's sorted baseline uses 12 MB SSTs ~= 200K records at 60 B).
    Runs inline; :func:`compact_all_epochs` is the fan-out.  Returns
    the epoch output directory.
    """
    if sst_records < 1:
        raise ValueError("sst_records must be >= 1")
    all_records = read_epoch(in_dir, epoch).sorted_by_key()
    epoch_dir = Path(out_dir) / str(epoch)
    epoch_dir.mkdir(parents=True, exist_ok=True)
    with LogWriter(epoch_dir / log_name(0)) as writer:
        n = len(all_records)
        for start in range(0, n, sst_records):
            chunk = all_records.select(slice(start, start + sst_records))
            # chunk is already sorted; sort=True marks the flag (no-op resort)
            writer.append_batch(chunk, epoch, sort=True)
        writer.flush_epoch(epoch)
    return epoch_dir


def _epoch_output_stats(epoch_dir: Path) -> tuple[int, int]:
    """(records, bytes) of one compacted epoch, from its manifests."""
    records = 0
    nbytes = 0
    for path in list_logs(epoch_dir):
        with LogReader(path) as reader:
            for entry in reader.entries:
                records += entry.count
                nbytes += entry.length
    return records, nbytes


def compact_all_epochs(
    in_dir: Path | str,
    out_dir: Path | str,
    sst_records: int = 4096,
    obs: Obs = NULL_OBS,
) -> list[Path]:
    """Compact every epoch present in the input logs.

    One :func:`compact_epoch` task per epoch on a
    :class:`~repro.exec.api.SerialExecutor`, so a failed epoch does not
    stop the others and surfaces as ``WorkerTaskError``.  Returns the
    per-epoch output directories, sorted by epoch — the directory
    structure matches the paper artifact's ``particle.sorted/<epoch>/``
    layout.

    Under a recording ``obs`` the driver emits one modeled ``compact``
    span per epoch (``records * RECORD_TICK`` virtual ticks) and
    increments ``compact.records`` / ``compact.bytes_written``, both
    computed from the *output* manifests after the work completes.
    """
    if sst_records < 1:
        # checked before the fan-out so the caller sees the plain
        # ValueError, not a WorkerTaskError wrapping it
        raise ValueError("sst_records must be >= 1")
    logs = list_logs(in_dir)
    if not logs:
        raise FileNotFoundError(f"no KoiDB logs under {in_dir}")
    epochs: set[int] = set()
    for path in logs:
        with LogReader(path) as reader:
            epochs.update(e.epoch for e in reader.entries)
    exec_, _owned = resolve_executor()  # a fresh executor, always owned
    with exec_:
        dirs: list[Path] = exec_.map(
            compact_epoch,
            [(in_dir, out_dir, epoch, sst_records) for epoch in sorted(epochs)],
        )
    if obs.enabled:
        track = obs.track("compact", "driver")
        m_records = obs.metrics.counter("compact.records")
        m_bytes = obs.metrics.counter("compact.bytes_written")
        for epoch, directory in zip(sorted(epochs), dirs):
            records, nbytes = _epoch_output_stats(directory)
            with obs.span(
                track, "compact", dur=records * RECORD_TICK,
                args={"epoch": epoch, "records": records, "bytes": nbytes},
            ):
                pass
            m_records.add(records)
            m_bytes.add(nbytes)
    return dirs


def sorted_sst_boundaries(epoch_dir: Path | str) -> np.ndarray:
    """Key boundaries of a sorted layout's SSTs, for YCSB range mapping.

    The YCSB suite (paper §VII-A) defines query ranges in terms of
    fully ordered SST numbers and translates them into key ranges; this
    returns the ``n_ssts + 1`` boundary keys enabling that translation.
    """
    logs = list_logs(epoch_dir)
    if len(logs) != 1:
        raise ValueError(f"expected exactly one sorted log in {epoch_dir}")
    with LogReader(logs[0]) as reader:
        entries = sorted(reader.entries, key=lambda e: e.offset)
        if not entries:
            raise ValueError(f"no SSTs in {epoch_dir}")
        bounds = [e.kmin for e in entries] + [entries[-1].kmax]
    return np.asarray(bounds, dtype=np.float64)

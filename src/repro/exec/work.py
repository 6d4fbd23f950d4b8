"""The per-log query probe: :func:`probe_entries`.

``PartitionedStore`` calls it inline, once per open log reader, on
every query.  It lives in ``repro.exec`` because the ledger's tracer
wraps ``repro.exec.work.probe_entries`` by name.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.records import RecordBatch
from repro.storage.log import LogReader
from repro.storage.manifest import ManifestEntry
from repro.storage.sstable import match_rows

@dataclasses.dataclass(frozen=True)
class LogProbeResult:
    """Per-log probe output, in the log's candidate-entry order."""

    #: bytes the probe actually touched (Σ of the reader's spans)
    bytes_read: int
    scanned: int
    #: spans the probe actually issued
    requests: int
    #: candidate SSTs probed, and the bytes a client that fetches each
    #: of them whole would move — what the I/O model prices
    ssts: int
    candidate_bytes: int
    runs: list[RecordBatch]
    key_runs: list[np.ndarray]

    @property
    def matched(self) -> int:
        """Records that survived the range filter in this log.

        The per-log share of ``QueryCost.records_matched``: the merged
        result concatenates every log's runs, so the per-log counts sum
        exactly to the query total (the reconciliation ``carp explain``
        relies on).
        """
        return (sum(len(r) for r in self.runs)
                + sum(len(k) for k in self.key_runs))


def probe_entries(
    reader: LogReader,
    entries: list[ManifestEntry],
    lo: float,
    hi: float,
    keys_only: bool,
) -> LogProbeResult:
    """Read and range-filter one log's candidate SSTs for a query.

    The one per-entry probe loop: ``PartitionedStore`` calls it inline
    per open reader and concatenates the per-log results in
    reader-index order.

    Full-record probes are keys-first (``LogReader.read_sst`` with
    bounds): value bytes are fetched only for matched rows.  Bytes and
    requests are summed from what each read call reports it touched —
    never from the reader's shared counters, which other threads of a
    serving plane advance too.
    """
    bytes_read = 0
    requests = 0
    candidate_bytes = 0
    scanned = 0
    runs: list[RecordBatch] = []
    key_runs: list[np.ndarray] = []
    for entry in entries:
        if keys_only:
            info, sst_keys, nbytes = reader.read_sst_keys(entry)
            # a keys-only client fetches exactly this prefix: the
            # touched bytes are the priced bytes
            bytes_read += nbytes
            candidate_bytes += nbytes
            requests += 1
            scanned += entry.count
            matched = sst_keys[match_rows(info, sst_keys, lo, hi)]
            if len(matched):
                key_runs.append(matched)
        else:
            read = reader.read_sst(entry, lo, hi)
            bytes_read += read.bytes_read
            requests += read.requests
            candidate_bytes += entry.length
            scanned += entry.count
            if len(read.batch):
                runs.append(read.batch)
    return LogProbeResult(
        bytes_read=bytes_read,
        scanned=scanned,
        requests=requests,
        ssts=len(entries),
        candidate_bytes=candidate_bytes,
        runs=runs,
        key_runs=key_runs,
    )

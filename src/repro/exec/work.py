"""The per-log query probe: :func:`probe_entries`.

``PartitionedStore`` calls it inline on every query, once per log with
candidate SSTs.  It lives in ``repro.exec`` because the ledger's tracer
wraps ``repro.exec.work.probe_entries`` by name.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.records import RecordBatch
from repro.storage.blocks import chunk_count
from repro.storage.log import LogReader, SSTKeysRead, SSTRead
from repro.storage.manifest import ManifestEntry
from repro.storage.sstable import keys_span_len

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
    #: key chunks the probes verified and searched, and the candidate
    #: SSTs' chunks their zone maps pruned
    key_chunks_read: int
    key_chunks_skipped: int
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
    per log with candidates and concatenates the per-log results in
    reader-index order.

    Probes are keys-first: against the head the reader decoded at
    open, each reads only the key chunks whose zone meets ``[lo, hi]``,
    and a full-record probe (``LogReader.read_sst`` with bounds) then
    fetches value bytes for the matched rows only.  Bytes, requests and key chunks are summed
    from what each read call reports it touched, so probes on one
    reader from several threads each account their own.
    """
    bytes_read = 0
    requests = 0
    candidate_bytes = 0
    scanned = 0
    chunks_read = 0
    chunks = 0
    runs: list[RecordBatch] = []
    key_runs: list[np.ndarray] = []
    for entry in entries:
        read: SSTRead | SSTKeysRead
        if keys_only:
            read = reader.read_sst_keys(entry, lo, hi)
            # a keys-only client fetches the head and key block whole
            candidate_bytes += keys_span_len(entry.count)
            if len(read.keys):
                key_runs.append(read.keys)
        else:
            read = reader.read_sst(entry, lo, hi)
            candidate_bytes += entry.length
            if len(read.batch):
                runs.append(read.batch)
        bytes_read += read.bytes_read
        requests += read.requests
        chunks_read += read.key_chunks
        chunks += chunk_count(entry.count)
        scanned += entry.count
    return LogProbeResult(
        bytes_read=bytes_read,
        scanned=scanned,
        requests=requests,
        ssts=len(entries),
        candidate_bytes=candidate_bytes,
        key_chunks_read=chunks_read,
        key_chunks_skipped=chunks - chunks_read,
        runs=runs,
        key_runs=key_runs,
    )

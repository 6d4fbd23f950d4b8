"""The per-log query probe: :func:`probe_entries`.

``PartitionedStore`` calls it inline on every query, once per log with
candidate SSTs.  It lives in ``repro.exec`` because the ledger's tracer
wraps ``repro.exec.work.probe_entries`` by name.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.records import RecordBatch
from repro.storage.blocks import CHUNK_RECORDS
from repro.storage.log import LogReader
from repro.storage.manifest import ManifestEntry
from repro.storage.sstable import keys_span_len


class LogProbeResult(NamedTuple):
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
    #: records that survived the range filter in this log: the per-log
    #: share of ``QueryCost.records_matched``.  The merged result
    #: concatenates every log's runs, so the per-log counts sum exactly
    #: to the query total (the reconciliation ``carp explain`` relies on)
    matched: int
    runs: list[RecordBatch]
    key_runs: list[np.ndarray]


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

    Probes are keys-first: against the probe record the reader built at
    open, each reads only the key chunks whose zone meets ``[lo, hi]``,
    and a full-record probe (``LogReader.read_sst`` with bounds) then
    fetches value bytes for the matched rows only.  Bytes, requests and
    key chunks are summed from what each read call reports it touched,
    so probes on one reader from several threads each account their own.
    """
    bytes_read = requests = candidate_bytes = 0
    scanned = chunks_read = chunks = matched = 0
    runs: list[RecordBatch] = []
    key_runs: list[np.ndarray] = []
    read, read_keys = reader.read_sst, reader.read_sst_keys
    for entry in entries:
        count = entry.count
        if keys_only:
            keys, nbytes, nrequests, nchunks = read_keys(entry, lo, hi)
            # a keys-only client fetches the head and key block whole
            candidate_bytes += keys_span_len(count)
        else:
            batch, nbytes, nrequests, nchunks = read(entry, lo, hi)
            keys = batch.keys
            candidate_bytes += entry.length
        if len(keys):
            matched += len(keys)
            if keys_only:
                key_runs.append(keys)
            else:
                runs.append(batch)
        bytes_read += nbytes
        requests += nrequests
        chunks_read += nchunks
        scanned += count
        chunks += -(-count // CHUNK_RECORDS)  # blocks.chunk_count, inlined
    return LogProbeResult(
        bytes_read, scanned, requests, len(entries), candidate_bytes,
        chunks_read, chunks - chunks_read, matched, runs, key_runs,
    )

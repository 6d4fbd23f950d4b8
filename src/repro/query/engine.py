"""Range query engine over KoiDB-format partitioned output.

Implements the paper's query path (§VII-A): the per-log manifests are
consulted to find SSTables overlapping the query range; those SSTs are
fetched (modelled as parallel large reads); and, because CARP SSTs may
overlap in key range, the fetched runs are merge-sorted to produce
ordered range-query semantics.  The same engine reads fully sorted
compactor output — there the overlapping-run merge degenerates to
concatenation, which is exactly why sorted layouts pay no merge cost.

Probes are keys-first: each log's SST heads (header and chunk index)
are verified and decoded once, when the store opens it, so a probe
reads no head.  It searches only the key chunks whose zone meets the
range (by binary search when the SST is sorted), then takes the rids
of the matched rows from the value chunks covering them; each key and
value chunk is verified once per open reader, on first touch.
``QueryCost.bytes_read`` / ``read_requests`` are those touched spans,
measured on the real files.  The
:class:`~repro.sim.iomodel.IOModel` keeps pricing the paper's client,
which fetches each candidate SST whole (``QueryCost.candidate_bytes``,
one request per SST), at paper scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.records import RecordBatch
from repro.exec.work import LogProbeResult, probe_entries
from repro.obs import NULL_OBS, Obs, RequestContext
from repro.query.request import check_bounds
from repro.sim.iomodel import IOModel
from repro.storage.log import LogReader, list_logs
from repro.storage.manifest import ManifestEntry
from repro.storage.recovery import CommittedState
from repro.storage.snapshot import Snapshot

if TYPE_CHECKING:
    from repro.query.explain import QueryExplain

#: Bucket bounds (virtual seconds) shared by the ``query.latency`` and
#: ``serve.latency`` histograms — one scale, so served and engine-side
#: quantiles are directly comparable.  Four log-spaced bounds per
#: decade from 10 µs to 10 s: a cold narrow query models well under a
#: millisecond, so a coarser floor would put every quantile in its
#: first bucket.
LATENCY_BOUNDS: tuple[float, ...] = tuple(
    float(f"{mantissa}e{exponent}")
    for exponent in range(-5, 1)
    for mantissa in ("1", "1.8", "3.2", "5.6")
) + (10.0,)


@dataclass(frozen=True)
class QueryCost:
    """Measured and modeled cost of one range query."""

    ssts_considered: int
    ssts_read: int
    #: bytes the probes actually touched, in ``read_requests`` spans:
    #: key and value chunks only, since heads are read once at open
    bytes_read: int
    read_requests: int
    #: bytes of the candidate SSTs fetched whole (key prefixes for a
    #: keys-only query) — what ``read_time``/``merge_time`` price: the
    #: model keeps costing the paper's whole-SST client (§VII-A)
    candidate_bytes: int
    #: key chunks the probes verified and searched, and the candidate
    #: SSTs' key chunks their zone maps pruned
    key_chunks_read: int
    key_chunks_skipped: int
    records_scanned: int
    records_matched: int
    merge_bytes: int
    read_time: float
    merge_time: float

    @property
    def bytes_skipped(self) -> int:
        """Candidate bytes the keys-first probes never touched."""
        return self.candidate_bytes - self.bytes_read

    @property
    def latency(self) -> float:
        """Modeled end-to-end query latency (fetch + merge/filter)."""
        return self.read_time + self.merge_time


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one range query: matching records, sorted by key."""

    lo: float
    hi: float
    epoch: int
    keys: np.ndarray
    rids: np.ndarray
    cost: QueryCost

    def __len__(self) -> int:
        return len(self.keys)


class PartitionedStore:
    """Read-only view over a directory of KoiDB logs.

    Works for both CARP output (one log per rank, overlapping SSTs) and
    compacted output (one log, key-disjoint sorted SSTs).  Query
    clients access logs read-only, so any number of stores may be open
    concurrently, and one store may be queried from many threads at
    once: after the open only its readers' verified columns grow
    (:attr:`key_chunks_verified`, :attr:`value_chunks_verified`; a
    query's answer and cost never depend on them), and each query
    records into the ``obs`` stack it is given.  Each log opens
    strictly at its end-of-file footer, so a crash-torn log fails the
    open.

    ``snapshot=`` (a :class:`~repro.storage.snapshot.Snapshot` from
    :func:`~repro.storage.snapshot.pin_snapshot`) opens every log at
    its *pinned* commit point instead: bytes after the pin are never
    consulted, so the store can serve reads while an ingest appends to
    the same logs (``docs/SERVING.md``) and reads a crash-torn
    directory at each log's newest valid footer (paper §V-A).
    """

    def __init__(
        self,
        directory: Path | str,
        io: IOModel | None = None,
        snapshot: Snapshot | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.io = io or IOModel()
        self.snapshot = snapshot
        if snapshot is not None:
            if Path(snapshot.directory) != self.directory:
                raise ValueError(
                    f"snapshot pins {snapshot.directory}, store opens "
                    f"{self.directory}"
                )
            paths = [Path(pin.path) for pin in snapshot.logs]
            pins: list[CommittedState | None] = [
                pin.state for pin in snapshot.logs
            ]
        else:
            paths = list_logs(self.directory)
            pins = [None] * len(paths)
        if not paths:
            raise FileNotFoundError(f"no KoiDB logs under {self.directory}")
        self._paths = paths
        # open all logs, closing the ones already open if a later one
        # fails to parse — a half-built store leaks no handles
        self._readers = []
        try:
            for p, pin in zip(paths, pins):
                self._readers.append(LogReader(p, pin=pin))
        except BaseException:
            for reader in self._readers:
                reader.close()
            raise
        # (reader index, entry) pairs across all logs, grouped by
        # reader index — _plan walks logs in this order, which fixes
        # the order runs are concatenated in
        self._entries: list[tuple[int, ManifestEntry]] = []
        for i, r in enumerate(self._readers):
            for e in r.entries:
                self._entries.append((i, e))
        # the same pairs per epoch, in the same order, with their key
        # bounds as float64 columns: candidate selection is one
        # vectorised interval test instead of a walk over every entry
        self._by_epoch: dict[int, list[tuple[int, ManifestEntry]]] = {}
        for pair in self._entries:
            self._by_epoch.setdefault(pair[1].epoch, []).append(pair)
        self._bounds = {
            epoch: (
                np.array([e.kmin for _, e in pairs], dtype=np.float64),
                np.array([e.kmax for _, e in pairs], dtype=np.float64),
            )
            for epoch, pairs in self._by_epoch.items()
        }
        self._latest = max(self._by_epoch, default=None)
        # per epoch, the SST count of every log holding data, in reader
        # order: a query's ssts_considered, and explain's per-log rows
        self._ssts_per_log: dict[int, dict[int, int]] = {}
        for epoch, pairs in self._by_epoch.items():
            counts = self._ssts_per_log[epoch] = {}
            for log, _ in pairs:
                counts[log] = counts.get(log, 0) + 1

    @property
    def heads_decoded(self) -> int:
        """SST heads the open verified and decoded, over every log."""
        return sum(r.heads_decoded for r in self._readers)

    @property
    def key_chunks_verified(self) -> int:
        """Key chunks held verified in the readers' columns."""
        return sum(r.key_chunks_verified for r in self._readers)

    @property
    def value_chunks_verified(self) -> int:
        """Value chunks whose rids the readers' columns hold verified."""
        return sum(r.value_chunks_verified for r in self._readers)

    def close(self) -> None:
        for r in self._readers:
            r.close()

    def __enter__(self) -> "PartitionedStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ----------------------------------------------------------- metadata

    def epochs(self) -> list[int]:
        return sorted(self._by_epoch)

    def resolve_epoch(self, epoch: int | None) -> int:
        """Map an epoch-or-latest request onto an epoch of this view.

        One rule, live or pinned: ``None`` means the newest epoch the
        view holds, and an epoch it does not hold raises
        :class:`ValueError` naming the epochs it does (or saying that
        it holds none).
        """
        if epoch is None:
            if self._latest is None:
                raise ValueError(f"{self.directory} holds no committed SST")
            epoch = self._latest
        if epoch not in self._by_epoch:
            raise ValueError(
                f"epoch {epoch} is not committed in {self.directory} "
                f"(committed: {self.epochs()})"
            )
        return epoch

    def entries(self, epoch: int | None = None) -> list[tuple[int, ManifestEntry]]:
        if epoch is None:
            return list(self._entries)
        return list(self._by_epoch.get(epoch, ()))

    def total_bytes(self, epoch: int | None = None) -> int:
        return sum(e.length for _, e in self.entries(epoch))

    def total_records(self, epoch: int | None = None) -> int:
        return sum(e.count for _, e in self.entries(epoch))

    def key_range(self, epoch: int | None = None) -> tuple[float, float]:
        ents = self.entries(epoch)
        if not ents:
            raise ValueError(f"no data for epoch {epoch}")
        return (min(e.kmin for _, e in ents), max(e.kmax for _, e in ents))

    def overlapping_entries(
        self, epoch: int, lo: float, hi: float
    ) -> list[tuple[int, ManifestEntry]]:
        pairs = self._by_epoch.get(epoch)
        if pairs is None:
            return []
        kmin, kmax = self._bounds[epoch]
        # ManifestEntry.overlaps, over the whole epoch at once
        hits = np.flatnonzero((kmin <= hi) & (kmax >= lo))
        return [pairs[i] for i in hits.tolist()]

    # -------------------------------------------------------------- query

    def query(
        self,
        epoch: int,
        lo: float,
        hi: float,
        keys_only: bool = False,
        ctx: RequestContext | None = None,
        obs: Obs = NULL_OBS,
    ) -> QueryResult:
        """Execute a range query for keys in ``[lo, hi]``.

        Probes every SST whose manifest range overlaps the query
        (keys first, then the value chunks of the matched rows), and
        merge-sorts the surviving records.

        ``keys_only=True`` reads just the key sub-blocks — the paper's
        query client fetches key blocks first (§VII-A), and analyses
        that only need the indexed attribute skip the value blocks
        entirely.  The result's rids are then zero-filled.

        ``obs`` receives the query and per-log probe spans, the
        ``query.*`` counters and the latency histogram.  ``ctx``
        (minted by :class:`~repro.api.Session`) tags those spans, and
        the post-query telemetry sample, with the request id.
        """
        rows, cost = self._plan(epoch, lo, hi, keys_only)
        runs = [r for row in rows for r in row.probe.runs]
        key_runs = [k for row in rows for k in row.probe.key_runs]

        if keys_only:
            keys = (np.sort(np.concatenate(key_runs))
                    if key_runs else np.empty(0, dtype=np.float32))
            rids = np.zeros(len(keys), dtype=np.uint64)
        elif runs:
            merged = RecordBatch.concat(runs)
            # pairwise-disjoint sorted runs in ascending order (always so
            # on compacted output) concatenate already ordered, and a
            # stable sort of an ordered array is the identity
            if not (merged.keys[:-1] <= merged.keys[1:]).all():
                merged = merged.sorted_by_key()
            keys, rids = merged.keys, merged.rids
        else:
            keys = np.empty(0, dtype=np.float32)
            rids = np.empty(0, dtype=np.uint64)

        if obs.enabled:
            rid = ctx.request_id if ctx is not None else None
            # the client track before the per-log ones, so its thread
            # id comes first in the trace
            track = obs.track("query", "client")
            # one span per query; the modeled latency is the virtual
            # duration, with one per-log "probe" breakdown span priced
            # at that log's share of the modeled read time
            t0 = obs.clock.now()
            obs.clock.advance(cost.latency)
            for row in rows:
                probe = row.probe
                name = self._paths[row.log].name
                probe_args: dict[str, object] = {
                    "log": name,
                    "ssts": probe.requests, "bytes": probe.bytes_read,
                    "scanned": probe.scanned, "matched": probe.matched,
                }
                if rid is not None:
                    probe_args["request"] = rid
                obs.tracer.complete(
                    obs.track("query", name), "probe", t0,
                    self._read_time(probe), probe_args,
                )
            query_args: dict[str, object] = {
                "epoch": epoch, "lo": lo, "hi": hi,
                "ssts_read": cost.ssts_read, "bytes_read": cost.bytes_read,
                "matched": len(keys), "keys_only": keys_only,
            }
            if rid is not None:
                query_args["request"] = rid
            obs.tracer.complete(
                track, "query", t0, cost.latency, query_args,
            )
            metrics = obs.metrics
            metrics.counter("query.probe_bytes").add(cost.bytes_read)
            metrics.counter("query.read_requests").add(cost.read_requests)
            metrics.counter("query.ssts_read").add(cost.ssts_read)
            metrics.counter("query.records_matched").add(len(keys))
            metrics.counter("io.bytes_charged").add(cost.candidate_bytes)
            # modeled end-to-end latency distribution, in virtual
            # seconds — the p50/p95/p99 source for telemetry samples
            # and SLO gating
            metrics.histogram("query.latency", LATENCY_BOUNDS).observe(
                cost.latency
            )
            if ctx is not None:
                # queries run outside ingest barriers, so the registry
                # is fully merged here on every backend
                obs.telemetry.sample("query", request=rid)
        return QueryResult(lo, hi, epoch, keys, rids, cost)

    def explain(
        self,
        epoch: int,
        lo: float,
        hi: float,
        keys_only: bool = False,
        ctx: RequestContext | None = None,
        obs: Obs = NULL_OBS,
    ) -> "QueryExplain":
        """Plan + cost report for a range query, without merging it.

        Runs the same plan-and-probe step as :meth:`query` (same
        candidates, same SSTs read and range-filtered, same byte and
        request counts) but skips the final merge, and reports per-log
        attribution: for every log holding epoch data, the SSTs
        considered vs. read, bytes and requests, records scanned vs.
        matched, and the modeled per-log read time (the duration of
        that log's ``probe`` span in :meth:`query`).  The report's
        ``cost`` is the one that step computes, so it reconciles
        field-for-field with a real ``QueryResult.cost`` — ``carp
        explain`` enforces that.  No metrics are recorded — EXPLAIN is
        introspection, not workload — and no virtual time passes.
        With a ``ctx`` (minted by :meth:`repro.api.Session.explain` as
        ``explain-NNNNNN``) one zero-duration span tagged with the
        request id is emitted into ``obs`` so ``carp profile record
        --request`` covers EXPLAIN requests too.
        """
        from repro.query.explain import LogExplain, QueryExplain

        rows, cost = self._plan(epoch, lo, hi, keys_only)
        probed = {row.log: row for row in rows}
        logs = []
        for log, considered in self._ssts_per_log[epoch].items():
            name = self._paths[log].name
            row = probed.get(log)
            if row is None:
                # a log with no candidate: considered, never probed
                logs.append(LogExplain(log=name, ssts_considered=considered))
                continue
            probe = row.probe
            logs.append(LogExplain(
                log=name,
                ssts_considered=considered,
                ssts_read=probe.ssts,
                bytes_read=probe.bytes_read,
                read_requests=probe.requests,
                candidate_bytes=probe.candidate_bytes,
                key_chunks_read=probe.key_chunks_read,
                key_chunks_skipped=probe.key_chunks_skipped,
                records_scanned=probe.scanned,
                records_matched=probe.matched,
                read_time=self._read_time(probe),
                entries=tuple(row.entries),
            ))
        if ctx is not None and obs.enabled:
            # zero-duration: EXPLAIN spends no virtual time, the span
            # exists purely to carry the request id into the trace
            obs.tracer.complete(
                obs.track("query", "client"), "explain", obs.clock.now(), 0.0,
                {"epoch": epoch, "lo": lo, "hi": hi,
                 "keys_only": keys_only, "request": ctx.request_id},
            )
        return QueryExplain(
            directory=str(self.directory), epoch=epoch, lo=lo, hi=hi,
            keys_only=keys_only, logs=tuple(logs), cost=cost,
        )

    def _plan(
        self, epoch: int, lo: float, hi: float, keys_only: bool
    ) -> tuple[list[_LogRow], QueryCost]:
        """The read path shared by :meth:`query` and :meth:`explain`.

        Selects the candidate SSTs (:meth:`overlapping_entries`), probes
        each log's candidates inline through the mmap'd reader the store
        holds (pinned readers never consult bytes past their commit
        point), and returns one row per log with candidates, in reader
        order — the order runs are concatenated in — plus the query's
        :class:`QueryCost`.  A log without candidates gets no row.  An
        epoch the view does not hold raises :meth:`resolve_epoch`'s
        :class:`ValueError` rather than reading as empty.
        """
        check_bounds(lo, hi)
        pairs = self._by_epoch.get(epoch)
        if pairs is None:
            # latest, or an epoch this view does not hold (which raises)
            epoch = self.resolve_epoch(epoch)
            pairs = self._by_epoch[epoch]
        candidates: dict[int, list[ManifestEntry]] = {}
        for log, entry in self.overlapping_entries(epoch, lo, hi):
            candidates.setdefault(log, []).append(entry)
        rows = [
            _LogRow(log, entries, probe_entries(
                self._readers[log], entries, lo, hi, keys_only
            ))
            for log, entries in candidates.items()
        ]
        return rows, self._cost(len(pairs), rows)

    def _cost(self, considered: int, rows: list[_LogRow]) -> QueryCost:
        """The one place a query's measurements become a :class:`QueryCost`.

        ``considered`` is the epoch's SST count.  Measured fields report
        what the probes touched, summed in one pass; the modeled times
        price the candidate SSTs fetched whole, one request each.
        """
        bytes_read = requests = candidate_bytes = ssts_read = 0
        chunks_read = chunks_skipped = scanned = matched = 0
        spans: list[tuple[float, float, int]] = []
        for _log, entries, probe in rows:
            bytes_read += probe.bytes_read
            requests += probe.requests
            candidate_bytes += probe.candidate_bytes
            ssts_read += probe.ssts
            chunks_read += probe.key_chunks_read
            chunks_skipped += probe.key_chunks_skipped
            scanned += probe.scanned
            matched += probe.matched
            spans += [(e.kmin, e.kmax, e.length) for e in entries]
        merge_bytes = _overlapping_run_bytes(spans)
        io = self.io
        return QueryCost(
            ssts_considered=considered,
            ssts_read=ssts_read,
            bytes_read=bytes_read,
            read_requests=requests,
            candidate_bytes=candidate_bytes,
            key_chunks_read=chunks_read,
            key_chunks_skipped=chunks_skipped,
            records_scanned=scanned,
            records_matched=matched,
            merge_bytes=merge_bytes,
            read_time=io.read_time(candidate_bytes, ssts_read),
            merge_time=io.merge_time(merge_bytes) + io.scan_time(candidate_bytes),
        )

    def _read_time(self, probe: LogProbeResult) -> float:
        """Modeled time to fetch one log's candidates whole, alone."""
        return self.io.read_time(probe.candidate_bytes, probe.ssts)

    def scan(self, epoch: int) -> QueryResult:
        """Full scan of an epoch (the Fig. 7a "full scan" reference)."""
        lo, hi = self.key_range(epoch)
        return self.query(epoch, lo, hi)


class _LogRow(NamedTuple):
    """One log's share of a planned and probed query."""

    #: reader index (the log's position in the store)
    log: int
    #: the candidate SSTs probed, in manifest order
    entries: list[ManifestEntry]
    probe: LogProbeResult


def _overlapping_run_bytes(spans: list[tuple[float, float, int]]) -> int:
    """Bytes belonging to SSTs whose key ranges overlap another SST.

    Sorted/clustered layouts have pairwise-disjoint SSTs, so they pay
    no merge cost; CARP's partially ordered SSTs overlap and must be
    merge-sorted (the cost the paper includes in CARP's latency).
    """
    # in kmin order an SST overlaps an earlier one iff the running max
    # of the earlier kmax reaches its kmin, and a later one iff the
    # next kmin is within its kmax (closed intervals: touching counts);
    # an SST that overlaps any other participates in the merge.  A
    # query's candidates are few, so a Python sweep beats arrays.
    ordered = sorted(spans)
    total = 0
    reach = -math.inf
    for (kmin, kmax, length), (after, _, _) in zip(
        ordered, ordered[1:] + [(math.inf, math.inf, 0)]
    ):
        if reach >= kmin or after <= kmax:
            total += length
        if kmax > reach:
            reach = kmax
    return total

"""Range query engine over KoiDB-format partitioned output.

Implements the paper's query path (§VII-A): the per-log manifests are
consulted to find SSTables overlapping the query range; those SSTs are
fetched (modelled as parallel large reads); and, because CARP SSTs may
overlap in key range, the fetched runs are merge-sorted to produce
ordered range-query semantics.  The same engine reads fully sorted
compactor output — there the overlapping-run merge degenerates to
concatenation, which is exactly why sorted layouts pay no merge cost.

Probes are keys-first: an SST's head (header, key block, chunk CRC
table) is read and its matched rows found (by binary search when the
SST is sorted), and only the value chunks covering them are fetched.
``QueryCost.bytes_read`` / ``read_requests`` are those touched spans,
measured on the real files.  The
:class:`~repro.sim.iomodel.IOModel` keeps pricing the paper's client,
which fetches each candidate SST whole (``QueryCost.candidate_bytes``,
one request per SST), at paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

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
#: quantiles are directly comparable.
LATENCY_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)


@dataclass(frozen=True)
class QueryCost:
    """Measured and modeled cost of one range query."""

    ssts_considered: int
    ssts_read: int
    #: bytes the probes actually touched, in ``read_requests`` spans
    bytes_read: int
    read_requests: int
    #: bytes of the candidate SSTs fetched whole (key prefixes for a
    #: keys-only query) — what ``read_time``/``merge_time`` price: the
    #: model keeps costing the paper's whole-SST client (§VII-A)
    candidate_bytes: int
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
    concurrently.  ``recover=True`` tolerates crash-torn log tails by
    opening each log at its newest valid footer (epoch-aligned
    durability, paper §V-A).

    ``snapshot=`` (a :class:`~repro.storage.snapshot.Snapshot` from
    :func:`~repro.storage.snapshot.pin_snapshot`) opens every log at
    its *pinned* commit point instead of the current footer: the store
    then never consults bytes appended after the pin, so it can serve
    reads while an ingest appends to the same logs — the snapshot
    isolation contract of ``docs/SERVING.md``.
    """

    def __init__(
        self,
        directory: Path | str,
        io: IOModel | None = None,
        recover: bool = False,
        obs: Obs | None = None,
        snapshot: Snapshot | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.io = io or IOModel()
        self.obs = obs if obs is not None else NULL_OBS
        self._tr_query = self.obs.track("query", "client")
        metrics = self.obs.metrics
        self._m_probe_bytes = metrics.counter("query.probe_bytes")
        self._m_requests = metrics.counter("query.read_requests")
        self._m_ssts_read = metrics.counter("query.ssts_read")
        self._m_matched = metrics.counter("query.records_matched")
        self._m_io_bytes = metrics.counter("io.bytes_charged")
        # modeled end-to-end latency distribution, in virtual seconds —
        # the p50/p95/p99 source for telemetry samples and SLO gating
        self._m_latency = metrics.histogram("query.latency", LATENCY_BOUNDS)
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
                self._readers.append(LogReader(p, recover=recover, pin=pin))
        except BaseException:
            for reader in self._readers:
                reader.close()
            raise
        # (reader index, entry) pairs across all logs, grouped by
        # reader index — _probe walks logs in this order, which fixes
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

        Pinned: the snapshot decides (``None`` = newest at pin time, an
        epoch it did not pin raises).  Live: ``None`` = newest stored
        epoch; a named epoch is taken as given, and one with no data
        answers empty.
        """
        if self.snapshot is not None:
            return self.snapshot.resolve_epoch(epoch)
        if epoch is not None:
            return epoch
        epochs = self.epochs()
        if not epochs:
            raise ValueError(f"no committed epochs under {self.directory}")
        return epochs[-1]

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
    ) -> QueryResult:
        """Execute a range query for keys in ``[lo, hi]``.

        Probes every SST whose manifest range overlaps the query
        (keys first, then the value chunks of the matched rows), and
        merge-sorts the surviving records.

        ``keys_only=True`` reads just the key sub-blocks — the paper's
        query client fetches key blocks first (§VII-A), and analyses
        that only need the indexed attribute skip the value blocks
        entirely.  The result's rids are then zero-filled.

        ``ctx`` (minted by :class:`~repro.api.Session`) tags the query
        and per-log probe spans, and the post-query telemetry sample,
        with the request id.
        """
        check_bounds(lo, hi)
        candidates = self.overlapping_entries(epoch, lo, hi)
        probes = self._probe(candidates, lo, hi, keys_only)
        runs = [r for _, p in probes for r in p.runs]
        key_runs = [k for _, p in probes for k in p.key_runs]

        if keys_only:
            keys = (np.sort(np.concatenate(key_runs))
                    if key_runs else np.empty(0, dtype=np.float32))
            rids = np.zeros(len(keys), dtype=np.uint64)
        elif runs:
            merged = RecordBatch.concat(runs)
            # pairwise-disjoint sorted runs in ascending order (always so
            # on compacted output) concatenate already ordered, and a
            # stable sort of an ordered array is the identity
            if not np.all(merged.keys[:-1] <= merged.keys[1:]):
                merged = merged.sorted_by_key()
            keys, rids = merged.keys, merged.rids
        else:
            keys = np.empty(0, dtype=np.float32)
            rids = np.empty(0, dtype=np.uint64)

        cost = self._cost(
            len(self._by_epoch.get(epoch, ())), candidates,
            [p for _, p in probes], len(keys),
        )
        if self.obs.enabled:
            rid = ctx.request_id if ctx is not None else None
            # one span per query; the modeled latency is the virtual
            # duration, with one per-log "probe" breakdown span priced
            # at that log's share of the modeled read time
            t0 = self.obs.clock.now()
            self.obs.clock.advance(cost.latency)
            for reader_idx, probe in probes:
                probe_args: dict[str, object] = {
                    "log": self._paths[reader_idx].name,
                    "ssts": probe.requests, "bytes": probe.bytes_read,
                    "scanned": probe.scanned, "matched": probe.matched,
                }
                if rid is not None:
                    probe_args["request"] = rid
                self.obs.tracer.complete(
                    self.obs.track("query", self._paths[reader_idx].name),
                    "probe", t0,
                    self.io.read_time(probe.candidate_bytes, probe.ssts),
                    probe_args,
                )
            query_args: dict[str, object] = {
                "epoch": epoch, "lo": lo, "hi": hi,
                "ssts_read": cost.ssts_read, "bytes_read": cost.bytes_read,
                "matched": len(keys), "keys_only": keys_only,
            }
            if rid is not None:
                query_args["request"] = rid
            self.obs.tracer.complete(
                self._tr_query, "query", t0, cost.latency, query_args,
            )
            self._m_probe_bytes.add(cost.bytes_read)
            self._m_requests.add(cost.read_requests)
            self._m_ssts_read.add(len(candidates))
            self._m_matched.add(len(keys))
            self._m_io_bytes.add(cost.candidate_bytes)
            self._m_latency.observe(cost.latency)
            if ctx is not None:
                # queries run outside ingest barriers, so the registry
                # is fully merged here on every backend
                self.obs.telemetry.sample("query", request=rid)
        return QueryResult(lo, hi, epoch, keys, rids, cost)

    def _cost(
        self,
        considered: int,
        candidates: list[tuple[int, ManifestEntry]],
        probes: list[LogProbeResult],
        matched: int,
    ) -> QueryCost:
        """The one place a query's measurements become a :class:`QueryCost`.

        Measured fields report what the probes touched; the modeled
        times price the candidate SSTs fetched whole, one request each.
        """
        candidate_bytes = sum(p.candidate_bytes for p in probes)
        merge_bytes = _overlapping_run_bytes(
            [(e.kmin, e.kmax, e.length) for _, e in candidates]
        )
        return QueryCost(
            ssts_considered=considered,
            ssts_read=len(candidates),
            bytes_read=sum(p.bytes_read for p in probes),
            read_requests=sum(p.requests for p in probes),
            candidate_bytes=candidate_bytes,
            records_scanned=sum(p.scanned for p in probes),
            records_matched=matched,
            merge_bytes=merge_bytes,
            read_time=self.io.read_time(candidate_bytes, len(candidates)),
            merge_time=self.io.merge_time(merge_bytes)
            + self.io.scan_time(candidate_bytes),
        )

    def _probe(
        self,
        candidates: list[tuple[int, ManifestEntry]],
        lo: float,
        hi: float,
        keys_only: bool,
    ) -> list[tuple[int, LogProbeResult]]:
        """Probe the candidate SSTs, one result per log, in reader order.

        Every log is probed inline through the mmap'd reader the store
        already holds (pinned readers never consult bytes past their
        commit point), so ``query`` and ``explain`` see the same
        per-log measurements whatever backend ingested the data.
        """
        by_reader: dict[int, list[ManifestEntry]] = {}
        for reader_idx, entry in candidates:
            by_reader.setdefault(reader_idx, []).append(entry)
        return [
            (idx, probe_entries(self._readers[idx], entries, lo, hi, keys_only))
            for idx, entries in by_reader.items()
        ]

    def explain(
        self,
        epoch: int,
        lo: float,
        hi: float,
        keys_only: bool = False,
        ctx: RequestContext | None = None,
    ) -> "QueryExplain":
        """Plan + cost report for a range query, without running it.

        Executes the *probe* stage for real (same manifests consulted,
        same SSTs read and range-filtered, same byte/request counts)
        but skips the final merge, and reports per-log attribution: for
        every log holding epoch data, the SSTs considered vs. read,
        bytes and requests, records scanned vs. matched, and the
        modeled per-log read time.  The report's ``cost`` is computed
        by the exact expressions :meth:`query` uses, so it reconciles
        field-for-field with a real ``QueryResult.cost`` — that exact
        reconciliation is enforced by ``carp explain``.  No metrics are
        recorded — EXPLAIN is introspection, not workload — and no
        virtual time passes.  With a ``ctx`` (minted by
        :meth:`repro.api.Session.explain` as ``explain-NNNNNN``) one
        zero-duration span tagged with the request id is emitted so
        ``carp trace --request`` covers EXPLAIN requests too.
        """
        from repro.query.explain import LogExplain, QueryExplain

        check_bounds(lo, hi)
        all_entries = self.entries(epoch)
        candidates = self.overlapping_entries(epoch, lo, hi)
        probes = dict(self._probe(candidates, lo, hi, keys_only))
        by_reader_all: dict[int, list[ManifestEntry]] = {}
        for reader_idx, entry in all_entries:
            by_reader_all.setdefault(reader_idx, []).append(entry)
        by_reader_cand: dict[int, list[ManifestEntry]] = {}
        for reader_idx, entry in candidates:
            by_reader_cand.setdefault(reader_idx, []).append(entry)
        logs = []
        for reader_idx in sorted(by_reader_all):
            probe = probes.get(reader_idx)
            logs.append(LogExplain(
                log=self._paths[reader_idx].name,
                ssts_considered=len(by_reader_all[reader_idx]),
                ssts_read=len(by_reader_cand.get(reader_idx, [])),
                bytes_read=probe.bytes_read if probe else 0,
                read_requests=probe.requests if probe else 0,
                candidate_bytes=probe.candidate_bytes if probe else 0,
                records_scanned=probe.scanned if probe else 0,
                records_matched=probe.matched if probe else 0,
                read_time=(self.io.read_time(probe.candidate_bytes, probe.ssts)
                           if probe else 0.0),
                entries=tuple(by_reader_cand.get(reader_idx, [])),
            ))
        cost = self._cost(
            len(all_entries), candidates, list(probes.values()),
            sum(p.matched for p in probes.values()),
        )
        if ctx is not None and self.obs.enabled:
            # zero-duration: EXPLAIN spends no virtual time, the span
            # exists purely to carry the request id into the trace
            self.obs.tracer.complete(
                self._tr_query, "explain", self.obs.clock.now(), 0.0,
                {"epoch": epoch, "lo": lo, "hi": hi,
                 "keys_only": keys_only, "request": ctx.request_id},
            )
        return QueryExplain(
            directory=str(self.directory), epoch=epoch, lo=lo, hi=hi,
            keys_only=keys_only, logs=tuple(logs), cost=cost,
        )

    def scan(self, epoch: int) -> QueryResult:
        """Full scan of an epoch (the Fig. 7a "full scan" reference)."""
        lo, hi = self.key_range(epoch)
        return self.query(epoch, lo, hi)

    def query_all_epochs(self, lo: float, hi: float) -> dict[int, QueryResult]:
        """Run one range query against every stored epoch.

        The paper's latency suite indexes 12 timesteps and queries them
        individually; this is the convenience wrapper for that pattern
        (e.g. tracking an energy band across the whole simulation).
        """
        return {epoch: self.query(epoch, lo, hi) for epoch in self.epochs()}


def _overlapping_run_bytes(spans: list[tuple[float, float, int]]) -> int:
    """Bytes belonging to SSTs whose key ranges overlap another SST.

    Sorted/clustered layouts have pairwise-disjoint SSTs, so they pay
    no merge cost; CARP's partially ordered SSTs overlap and must be
    merge-sorted (the cost the paper includes in CARP's latency).
    """
    if len(spans) <= 1:
        return 0
    kmin = np.array([s[0] for s in spans])
    order = np.argsort(kmin, kind="stable")
    kmin = kmin[order]
    kmax = np.array([s[1] for s in spans])[order]
    length = np.array([s[2] for s in spans], dtype=np.int64)[order]
    # in kmin order an SST overlaps an earlier one iff the running max
    # of the earlier kmax reaches its kmin, and a later one iff the
    # next kmin is within its kmax (closed intervals: touching counts);
    # an SST that overlaps any other participates in the merge
    overlap = np.zeros(len(spans), dtype=bool)
    overlap[1:] = np.maximum.accumulate(kmax)[:-1] >= kmin[1:]
    overlap[:-1] |= kmin[1:] <= kmax[:-1]
    return int(length[overlap].sum())

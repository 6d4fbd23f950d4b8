"""The CARP run driver: epoch orchestration over all ranks.

:class:`CarpRun` wires the pieces together exactly as the paper's data
and control flow describes (Figs. 3-4): application records are
ingested in rounds; each rank routes its records through the partition
table into a delivery-delayed shuffle fabric; out-of-bounds records are
buffered; OOB-full and periodic triggers start renegotiations; and the
shuffle receivers hand delivered records to per-rank KoiDB instances
that log them as SSTables.

The driver is a *logical* simulator — it executes the real CARP
algorithms on real data and writes real bytes to disk, while time/cost
modelling is layered on separately (:mod:`repro.sim`).
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import CarpOptions
from repro.core.partition import OOB_DEST, PartitionTable, load_stddev
from repro.core.rank import CarpRankState
from repro.core.records import RecordBatch
from repro.core.renegotiation import RenegStats, negotiate
from repro.core.triggers import PeriodicTrigger, TriggerLog, TriggerReason
from repro.faults.plan import (
    ACTION_DROP,
    SITE_SHUFFLE_SEND,
    FaultInjector,
    FaultPlan,
)
from repro.obs import (
    MESSAGE_TICK,
    NULL_OBS,
    RECORD_TICK,
    ROUND_TICK,
    Obs,
    RequestContext,
)
from repro.shuffle.flow import DelayQueue, ShuffleMessage
from repro.shuffle.router import range_route, split_by_destination
from repro.storage.koidb import KoiDB

_MAX_ROUTE_RETRIES = 64


@dataclass
class EpochStats:
    """What happened during one ingested epoch."""

    epoch: int
    records: int = 0
    rounds: int = 0
    stray_records: int = 0
    partition_loads: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    triggers: TriggerLog = field(default_factory=TriggerLog)
    reneg_stats: list[RenegStats] = field(default_factory=list)
    #: partition tables adopted during the epoch, in adoption order —
    #: the boundary evolution of the paper's Fig. 2 logical view
    table_history: list[PartitionTable] = field(default_factory=list)
    final_table: PartitionTable | None = None

    @property
    def renegotiations(self) -> int:
        return self.triggers.count()

    @property
    def load_stddev(self) -> float:
        """Normalized partition-load standard deviation (paper metric)."""
        return load_stddev(self.partition_loads)

    @property
    def stray_fraction(self) -> float:
        return self.stray_records / self.records if self.records else 0.0

    def boundary_drift(self) -> np.ndarray:
        """Mean absolute boundary movement between consecutive tables.

        Normalized by each table's key-range width; quantifies how much
        the partition boundaries shifted at each renegotiation (the
        Fig. 2 "partition boundaries shift with key distribution
        changes" behaviour).
        """
        if len(self.table_history) < 2:
            return np.zeros(0)
        out = []
        for a, b in zip(self.table_history, self.table_history[1:]):
            width = max(b.hi - b.lo, 1e-12)
            if a.nparts == b.nparts:
                delta = np.abs(a.bounds - b.bounds).mean()
            else:  # compare at common quantile positions
                qs = np.linspace(0, 1, 33)
                ai = np.quantile(a.bounds, qs)
                bi = np.quantile(b.bounds, qs)
                delta = np.abs(ai - bi).mean()
            out.append(delta / width)
        return np.asarray(out)


class CarpRun:
    """Drives N simulated ranks through CARP ingestion epochs.

    By default every rank is also a shuffle receiver (one partition and
    one output file per rank).  At larger scales the file count can be
    reduced by making only a subset of ranks receivers (paper §VI):
    pass ``nreceivers < nranks`` and the keyspace is divided into that
    many partitions instead.
    """

    def __init__(
        self,
        nranks: int,
        out_dir: Path | str,
        options: CarpOptions | None = None,
        nreceivers: int | None = None,
        obs: Obs | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = nranks
        self.nreceivers = nranks if nreceivers is None else nreceivers
        if not 1 <= self.nreceivers <= nranks:
            raise ValueError(
                f"nreceivers must be in [1, {nranks}], got {self.nreceivers}"
            )
        self.options = options or CarpOptions()
        self.out_dir = Path(out_dir)
        self.obs = obs if obs is not None else NULL_OBS
        # track handles and instruments are resolved once; with the
        # null stack these are shared no-op objects
        self._tr_route = [
            self.obs.track("route", f"rank {r}") for r in range(nranks)
        ]
        self._tr_shuffle = self.obs.track("shuffle", "fabric")
        self._tr_reneg = self.obs.track("renegotiate", "driver")
        self._tr_epoch = self.obs.track("epoch", "driver")
        # flush-track layout is driver-owned: KoiDB instances record
        # onto rank-local buffering tracers, so they never declare
        # driver tracks themselves
        for r in range(self.nreceivers):
            self.obs.track("flush", f"rank {r}")
        metrics = self.obs.metrics
        self._m_records = metrics.counter("carp.records_ingested")
        self._m_routed = metrics.counter("carp.records_routed")
        self._m_shuffled = metrics.counter("carp.records_shuffled")
        self._m_messages = metrics.counter("carp.shuffle_messages")
        self._m_oob = metrics.counter("carp.records_oob_buffered")
        self._m_reneg_rounds = metrics.counter("reneg.rounds")
        self._m_reneg_msgs = metrics.counter("reneg.messages")
        self._m_reneg_bytes = metrics.counter("net.bytes_charged")
        self._m_route_hist = metrics.histogram(
            "carp.route_batch_records", (64, 256, 1024, 4096, 16384)
        )
        self._g_in_flight = metrics.gauge("shuffle.in_flight_records")
        self.ranks = [CarpRankState(r, self.options) for r in range(nranks)]
        # a fault plan arms the injection sites (see repro.faults): the
        # driver hosts the shuffle.send site, each receiver rank's KoiDB
        # hosts the storage sites.  With faults=None every hook below is
        # a single `is None` branch — production behaviour is unchanged.
        shuffle_specs = faults.shuffle_specs() if faults is not None else ()
        self._shuffle_injector = (
            FaultInjector(shuffle_specs, obs=self.obs)
            if shuffle_specs else None
        )
        # each receiver rank's KoiDB records metrics into the driver's
        # registry and spans onto its own clock and buffering tracer;
        # _merge_rank_spans folds the spans into the driver's trace in
        # rank order at epoch end and at close
        self._rank_obs = [self.obs.for_rank() for _r in range(self.nreceivers)]
        self.koidbs = [
            KoiDB(
                r, self.out_dir, self.options, obs=self._rank_obs[r],
                faults=faults.specs_for_rank(r) if faults is not None else (),
            )
            for r in range(self.nreceivers)
        ]
        self._closed = False
        self.table: PartitionTable | None = None
        self._version = 0
        self._flow: DelayQueue | None = None
        self._epoch_stats: EpochStats | None = None
        self._round_idx = 0
        self._external_reneg_requested = False
        self.epoch_history: list[EpochStats] = []

    # ----------------------------------------------------------- plumbing

    def close(self) -> None:
        """Close every rank's KoiDB and merge what they recorded.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._each_koidb(KoiDB.close)
        finally:
            self._merge_rank_spans()

    def _each_koidb(self, call: Callable[[KoiDB], None]) -> None:
        """Call ``call`` on every rank's KoiDB, then raise the first failure.

        Every rank is called even after one fails, and the failure
        raised is the lowest rank's: one rank's torn flush must not
        stop the other ranks from committing the epoch.
        """
        failure: Exception | None = None
        for db in self.koidbs:
            try:
                call(db)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure

    def _set_owned_ranges(self, table: PartitionTable) -> None:
        """Hand every receiver the key range it owns under ``table``."""
        last = self.nreceivers - 1
        self._each_koidb(lambda db: db.set_owned_range(
            *table.owns(db.rank), inclusive_hi=(db.rank == last)
        ))

    def _merge_rank_spans(self) -> None:
        """Fold every rank's buffered spans into the driver's trace.

        In rank order, each on its own timeline, so the merged trace
        does not depend on when within the epoch a rank did its work.
        """
        if not self.obs.enabled:
            return
        for rank_obs in self._rank_obs:
            self.obs.tracer.merge_events(rank_obs.tracer.drain())

    def __enter__(self) -> "CarpRun":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def request_renegotiation(self) -> None:
        """Application hint: renegotiate at the next round boundary.

        AMR codes know when they refine and can signal CARP for more
        precise control than the fixed-interval trigger (paper §V-B).
        """
        self._external_reneg_requested = True

    def write_amplification(self, record_size: int | None = None) -> float:
        """Measured write amplification across all epochs so far.

        Total bytes appended to the KoiDB logs divided by the user data
        volume.  CARP's design constraint is WAF 1x (paper §III); the
        small excess over 1.0 is SST/manifest metadata.
        """
        user_records = sum(s.records for s in self.epoch_history)
        if user_records == 0:
            return 0.0
        rec = (
            record_size
            if record_size is not None
            else 4 + self.options.value_size
        )
        written = sum(db.stats.bytes_written for db in self.koidbs)
        # include manifest/footer bytes: log offset is the whole file
        written_total = sum(db.log.offset for db in self.koidbs)
        return max(written, written_total) / (user_records * rec)

    def write_run_manifest(self, path: Path | str | None = None) -> Path:
        """Persist a machine-readable summary of the run so far.

        JSON with the configuration and per-epoch statistics — the
        run-level metadata a workflow needs to catalogue CARP output
        without re-reading the logs.  Defaults to
        ``<out_dir>/carp_run.json``.
        """
        target = Path(path) if path is not None else self.out_dir / "carp_run.json"
        doc = {
            "nranks": self.nranks,
            "nreceivers": self.nreceivers,
            "options": dataclasses.asdict(self.options),
            "write_amplification": self.write_amplification(),
            "epochs": [
                {
                    "epoch": s.epoch,
                    "records": s.records,
                    "rounds": s.rounds,
                    "renegotiations": s.renegotiations,
                    "triggers": [
                        {"round": r, "reason": reason.value}
                        for r, reason in s.triggers.events
                    ],
                    "stray_records": s.stray_records,
                    "stray_fraction": s.stray_fraction,
                    "load_stddev": s.load_stddev,
                    "partition_loads": s.partition_loads.tolist(),
                    "final_bounds": (
                        s.final_table.bounds.tolist()
                        if s.final_table is not None else None
                    ),
                }
                for s in self.epoch_history
            ],
        }
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(doc, indent=2))
        return target

    # -------------------------------------------------------------- epoch

    def ingest_epoch(
        self,
        epoch: int,
        streams: list[RecordBatch],
        ctx: RequestContext | None = None,
    ) -> EpochStats:
        """Ingest one checkpoint epoch.

        ``streams[r]`` is the record stream produced by application rank
        ``r``.  Partitions are bootstrapped from scratch (paper §V-B:
        "for new epochs CARP bootstraps partitions from scratch").
        Returns the epoch's statistics; the partitioned data is on disk
        when this returns.

        ``ctx`` (minted by :class:`~repro.api.Session`) attributes every
        span and telemetry sample of this epoch — driver- and
        storage-side — to one request id.

        A storage error (for instance an injected crash) propagates as
        itself.  Raised mid-epoch, it aborts the epoch before any rank
        commits it; raised by one rank's ``finish_epoch``, the other
        ranks still commit.
        """
        if self._closed:
            raise RuntimeError("run is closed")
        if len(streams) != self.nranks:
            raise ValueError(f"need {self.nranks} streams, got {len(streams)}")
        bad = {s.value_size for s in streams if s.value_size != self.options.value_size}
        if bad:
            raise ValueError(
                f"stream value_size {sorted(bad)} does not match "
                f"CarpOptions.value_size={self.options.value_size}"
            )
        total_records = sum(len(s) for s in streams)
        if total_records == 0:
            raise ValueError("cannot ingest an empty epoch")
        obs = self.obs
        rid = ctx.request_id if ctx is not None else None
        if obs.enabled and rid is not None:
            # driver-side spans pick the id up from the obs stack,
            # storage-side spans from each rank's.  Guarded: a request
            # id must never be assigned on the shared NULL_OBS
            obs.request_id = rid
            for db in self.koidbs:
                db.set_request(rid)

        if self.options.warm_start and self.table is not None:
            # reuse the previous epoch's final table: ranks rebin their
            # histograms to it, receivers re-adopt their owned ranges
            table = self.table
            for rank in self.ranks:
                rank.reset_for_epoch()
                rank.adopt_table(table)
            self._each_koidb(lambda db: db.begin_epoch(epoch))
            self._set_owned_ranges(table)
        else:
            self.table = None
            for rank in self.ranks:
                rank.reset_for_epoch()
            self._each_koidb(lambda db: db.begin_epoch(epoch))
        records_before = [db.stats.records_in for db in self.koidbs]
        strays_before = sum(db.stats.stray_records for db in self.koidbs)

        self._flow = DelayQueue(self.options.shuffle_delay_rounds)
        periodic = PeriodicTrigger.per_epoch(
            total_records, self.options.renegotiations_per_epoch
        )
        stats = EpochStats(epoch=epoch)
        self._epoch_stats = stats
        self._round_idx = 0
        # a crashed epoch leaves this span open, marking the crash
        # point.  The per-epoch span name is bounded by the epoch
        # count, the sanctioned exception to static instrument names.
        epoch_args: dict[str, object] = {"epoch": epoch, "records": total_records}
        if rid is not None:
            epoch_args["request"] = rid
        obs.tracer.begin(
            self._tr_epoch, f"epoch {epoch}", obs.clock.now(),  # carp-lint: disable-line=O503
            epoch_args,
        )

        chunk = self.options.round_records
        n_rounds = max(-(-len(s) // chunk) for s in streams)
        for round_idx in range(n_rounds):
            self._round_idx = round_idx
            obs.clock.advance(ROUND_TICK)
            # interval telemetry: driver-scoped counters only — rank
            # stacks merge at epoch end, never mid-epoch
            obs.telemetry.tick()
            pending: dict[int, RecordBatch] = {}
            round_records = 0
            for r, stream in enumerate(streams):
                lo = round_idx * chunk
                if lo >= len(stream):
                    continue
                piece = stream.select(slice(lo, lo + chunk))
                round_records += len(piece)
                pending[r] = piece
            # route until the round's data is all shuffled or buffered;
            # leftovers only arise during epoch bootstrap, when a full
            # OOB buffer must wait for a renegotiation that (per the
            # paper) folds in *every* rank's buffered keys
            for _attempt in range(_MAX_ROUTE_RETRIES):
                pending = self._route_round(pending)
                if not pending:
                    break
                self._renegotiate(TriggerReason.BOOTSTRAP)
            else:
                raise RuntimeError("bootstrap routing did not converge")
            stats.records += round_records
            self._m_records.add(round_records)
            self._deliver(self._flow.tick())
            if self.table is not None and self._external_reneg_requested:
                self._renegotiate(TriggerReason.EXTERNAL)
                self._external_reneg_requested = False
                periodic.reset()
            elif self.table is not None and periodic.advance(round_records):
                self._renegotiate(TriggerReason.PERIODIC)
                periodic.reset()
        stats.rounds = n_rounds

        # epoch end: any residual OOB data must reach disk, so force a
        # final renegotiation if buffers are non-empty (or the epoch was
        # small enough that no table was ever negotiated)
        for _attempt in range(_MAX_ROUTE_RETRIES):
            if self.table is not None and all(
                len(rank.oob) == 0 for rank in self.ranks
            ):
                break
            self._renegotiate(TriggerReason.EPOCH_FLUSH)
        else:
            raise RuntimeError("epoch flush did not converge")

        # flush the fabric and all storage buffers
        self._deliver(self._flow.drain())
        self._each_koidb(KoiDB.finish_epoch)
        self._merge_rank_spans()

        stats.partition_loads = np.array(
            [db.stats.records_in - before for db, before in zip(self.koidbs, records_before)],
            dtype=np.int64,
        )
        stats.stray_records = (
            sum(db.stats.stray_records for db in self.koidbs) - strays_before
        )
        stats.final_table = self.table
        self.epoch_history.append(stats)
        self._epoch_stats = None
        self._flow = None
        obs.tracer.end(
            self._tr_epoch, obs.clock.now(),
            {"strays": stats.stray_records,
             "renegotiations": stats.renegotiations},
        )
        if obs.enabled:
            # full sample: the rank stacks just merged, so the whole
            # registry is deterministic here
            obs.telemetry.sample("epoch", epoch=epoch, request=rid)
            obs.request_id = None
        return stats

    # ------------------------------------------------------------ routing

    def _route_span(
        self, r: int, batch: RecordBatch
    ) -> AbstractContextManager[object]:
        """Count ``batch`` as routed by rank ``r`` and open its route span."""
        self._m_route_hist.observe(len(batch))
        # counts every record a route pass handled — including OOB
        # leftovers re-routed after a renegotiation, so it exceeds
        # carp.records_ingested exactly when re-routing happened; the
        # route span args carry the same quantity and carp profile
        # joins the two (RECONCILIATIONS in repro.obs.profile)
        self._m_routed.add(len(batch))
        return self.obs.span(
            self._tr_route[r], "route", dur=len(batch) * RECORD_TICK,
            args={"rank": r, "records": len(batch)},
        )

    def _route_round(
        self, pending: dict[int, RecordBatch]
    ) -> dict[int, RecordBatch]:
        """Route one round's pieces, rank by rank (paper Fig. 4 control flow).

        In-bounds records are dispatched into the shuffle; out-of-bounds
        records are buffered, and a rank whose buffer fills triggers an
        immediate renegotiation.  During epoch bootstrap (no table yet)
        every record is buffered and nothing renegotiates here: the
        pieces that did not fit are returned, so :meth:`ingest_epoch` can
        wait for all ranks to contribute their buffered keys first.
        """
        if self.table is None:
            left: dict[int, RecordBatch] = {}
            for r, piece in pending.items():
                with self._route_span(r, piece):
                    rest = self.ranks[r].oob.add(piece)
                    self._m_oob.add(len(piece) - len(rest))
                if len(rest):
                    left[r] = rest
            return left
        todo = list(pending.items())
        while todo:
            todo = self._route_pass(todo)
        return {}

    def _route_pass(
        self, todo: list[tuple[int, RecordBatch]], attempt: int = 0
    ) -> list[tuple[int, RecordBatch]]:
        """Route rank-ordered pieces under the current table in one pass.

        One ``range_route`` over the pieces' concatenation, and one
        ``bincount`` of its out-of-bounds records per rank, find the
        first rank whose OOB buffer the pass fills; the pass covers the
        ranks up to and including it, since all of them route under the
        same table.  One ``split_by_destination`` over that prefix then
        sends each destination its share as one message: the prefix's
        records for it in rank order, the sequence one message per
        (rank, destination) would deliver.  Each rank then, in rank
        order and inside its route span, accounts its sent keys and
        buffers its out-of-bounds records; the filling rank renegotiates
        and re-routes its overflow through this routine under the new
        table (``attempt`` counts those re-routes, which run inside the
        rank's open span).  Returns the pieces of the ranks after it.
        """
        assert self.table is not None
        if attempt == _MAX_ROUTE_RETRIES:
            raise RuntimeError("routing did not converge (OOB thrashing)")
        ends = np.cumsum([len(piece) for _r, piece in todo])
        batch = (
            todo[0][1] if len(todo) == 1
            else RecordBatch.concat([piece for _r, piece in todo])
        )
        dests = range_route(batch, self.table)
        oob_counts = np.bincount(
            np.searchsorted(ends, np.flatnonzero(dests == OOB_DEST), side="right"),
            minlength=len(todo),
        )
        held = np.array([len(self.ranks[r].oob) for r, _piece in todo])
        filling = np.flatnonzero(
            (oob_counts > 0) & (held + oob_counts >= self.options.oob_capacity)
        )
        covered = int(filling[0]) + 1 if len(filling) else len(todo)
        stop = int(ends[covered - 1])
        if stop < len(batch):
            batch, dests = batch.select(slice(stop)), dests[:stop]
        per_dest, oob_batch = split_by_destination(batch, dests)
        for dest, share in per_dest.items():
            self._send(dest, share)
        start = oob_start = 0
        for (r, piece), end, n_oob in zip(todo[:covered], ends, oob_counts):
            rank = self.ranks[r]
            with self._route_span(r, piece) if attempt == 0 else nullcontext():
                if end - start > n_oob:
                    rank.observe_sent(batch.keys[start:end], dests[start:end])
                if n_oob:
                    overflow = rank.oob.add(
                        oob_batch.select(slice(oob_start, oob_start + n_oob))
                    )
                    self._m_oob.add(int(n_oob) - len(overflow))
                    if rank.oob.is_full:
                        self._renegotiate(TriggerReason.OOB_FULL)
                        if len(overflow):
                            self._route_pass([(r, overflow)], attempt + 1)
            start, oob_start = end, oob_start + n_oob
        return todo[covered:]

    def _send(self, dest: int, batch: RecordBatch) -> None:
        """Dispatch a batch toward ``dest``.

        A zero-round delay models a synchronous fabric: delivery
        happens before any later renegotiation can strand the message,
        so no stray keys can form.
        """
        assert self._flow is not None
        self._m_shuffled.add(len(batch))
        self._m_messages.add(1)
        if self._shuffle_injector is not None:
            spec = self._shuffle_injector.check(SITE_SHUFFLE_SEND)
            if spec is not None:
                # a faulted send always routes through the fabric, even
                # on a zero-delay configuration: a drop is withheld
                # until the epoch-end drain retransmits it, a delay is
                # held extra rounds — late delivery, never data loss
                if spec.action == ACTION_DROP:
                    self._flow.send(dest, batch, drop=True)
                else:
                    self._flow.send(dest, batch, extra_delay=int(spec.arg))
                return
        if self.options.shuffle_delay_rounds == 0:
            self.koidbs[dest].ingest(batch)
        else:
            self._flow.send(dest, batch)

    # ------------------------------------------------------ renegotiation

    def _renegotiate(self, reason: TriggerReason) -> None:
        """Run a renegotiation round (paper §V-C steps 1-5)."""
        assert self._flow is not None and self._epoch_stats is not None
        pivot_sets = [rank.compute_pivots() for rank in self.ranks]
        if all(p is None for p in pivot_sets):
            return  # nothing observed anywhere; keep waiting
        obs = self.obs
        reneg_args: dict[str, object] = {
            "round": self._round_idx, "reason": reason.value,
        }
        if obs.request_id is not None:
            reneg_args["request"] = obs.request_id
        obs.tracer.begin(
            self._tr_reneg, reason.value, obs.clock.now(), reneg_args,
        )
        bounds, reneg = negotiate(
            pivot_sets,
            self.nreceivers,
            self.options.pivot_count,
            protocol=self.options.reneg_protocol,
            fanout=self.options.trp_fanout,
            obs=self.obs,
        )
        obs.clock.advance(MESSAGE_TICK)  # table broadcast
        self._m_reneg_rounds.add(1)
        self._m_reneg_msgs.add(reneg.total_messages)
        self._m_reneg_bytes.add(reneg.total_bytes)
        self._version += 1
        self.table = PartitionTable.from_quantile_points(bounds, version=self._version)
        for rank in self.ranks:
            rank.adopt_table(self.table)
        self._set_owned_ranges(self.table)
        # flush OOB buffers under the new table (step 4)
        for rank in self.ranks:
            buffered = rank.oob.drain()
            if len(buffered) == 0:
                continue
            dests = range_route(buffered, self.table)
            per_dest, leftover = split_by_destination(buffered, dests)
            if len(leftover):
                # bounds were computed over these very keys, so nothing
                # should be left; tolerate float rounding by re-buffering
                rank.oob.add(leftover)
            rank.observe_sent(buffered.keys, dests)
            for dest, sub in per_dest.items():
                self._send(dest, sub)
        self._epoch_stats.triggers.record(self._round_idx, reason)
        self._epoch_stats.reneg_stats.append(reneg)
        self._epoch_stats.table_history.append(self.table)
        obs.tracer.end(
            self._tr_reneg, obs.clock.now(),
            {"version": self.table.version,
             "messages": reneg.total_messages, "bytes": reneg.total_bytes},
        )

    # ----------------------------------------------------------- delivery

    def _deliver(self, messages: list[ShuffleMessage]) -> None:
        """Hand one round's arrivals to storage, one call per destination.

        Each destination's messages are concatenated in arrival order
        and destinations are visited in ascending order, so a rank's
        main and stray memtables fill with the same record sequence as
        one call per message would give.  The log bytes differ only
        when a stray memtable fills inside the call: that stray SST is
        then appended before main SSTs that per-message delivery would
        have appended first.
        """
        if not messages:
            return
        assert self._flow is not None
        delivered = sum(len(m.batch) for m in messages)
        by_dest: dict[int, list[RecordBatch]] = {}
        for msg in messages:
            by_dest.setdefault(msg.dest, []).append(msg.batch)
        with self.obs.span(
            self._tr_shuffle, "deliver", dur=delivered * RECORD_TICK,
            args={"messages": len(messages), "records": delivered},
        ):
            for dest in sorted(by_dest):
                parts = by_dest[dest]
                self.koidbs[dest].ingest(
                    parts[0] if len(parts) == 1 else RecordBatch.concat(parts)
                )
        self._g_in_flight.set(self._flow.in_flight)

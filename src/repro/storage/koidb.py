"""KoiDB: CARP's reference storage backend (paper §V-D).

One KoiDB instance runs per rank, collects records from the shuffle
receiver, and logs them as SSTables in a per-rank append-only log.  Two
query-performance optimizations from the paper are implemented:

* **Repartitioning (stray separation).**  Records that arrive outside
  the rank's currently-owned key range (because a renegotiation landed
  while they were in flight) would, if mixed into the main SSTs,
  inflate every SST's key range and destroy partition selectivity.
  KoiDB keeps a second open memtable and diverts strays into dedicated
  stray SSTs, improving selectivity by up to 48x (paper §VII-C3).

* **Subpartitioning.**  At flush time the (sorted) memtable contents
  can be split into ``S`` smaller key-disjoint SSTs, reducing read
  amplification for highly selective queries (paper: 2-/4-way improves
  selective-query latency by 28%/43%).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.kernels import active_kernels
from repro.faults.plan import FaultInjector, FaultSpec
from repro.obs import NULL_OBS, RECORD_TICK, Obs
from repro.storage.log import LogWriter, log_name
from repro.storage.memtable import Memtable
from repro.storage.recovery import RepairAction


@dataclass
class KoiDBStats:
    """Ingest-side counters for one KoiDB instance."""

    records_in: int = 0
    stray_records: int = 0
    ssts_written: int = 0
    stray_ssts_written: int = 0
    bytes_written: int = 0
    memtable_flushes: int = 0

    def merge(self, other: "KoiDBStats") -> None:
        self.records_in += other.records_in
        self.stray_records += other.stray_records
        self.ssts_written += other.ssts_written
        self.stray_ssts_written += other.stray_ssts_written
        self.bytes_written += other.bytes_written
        self.memtable_flushes += other.memtable_flushes


class KoiDB:
    """Per-rank storage backend instance.

    ``faults=`` arms the ``storage.*`` fault sites for this rank (see
    :mod:`repro.faults`); ``recover=True`` re-opens an existing log at
    its commit point after a crash instead of truncating it, with the
    repair outcome exposed as :attr:`recovery`.
    """

    def __init__(
        self,
        rank: int,
        directory: Path | str,
        options: CarpOptions,
        obs: Obs | None = None,
        faults: Sequence[FaultSpec] | None = None,
        recover: bool = False,
    ) -> None:
        self.rank = rank
        self.options = options
        self.directory = Path(directory)
        obs_resolved = obs if obs is not None else NULL_OBS
        injector = (
            FaultInjector(faults, obs=obs_resolved) if faults else None
        )
        self.injector = injector
        self.log = LogWriter(
            self.directory / log_name(rank),
            recover=recover,
            injector=injector,
        )
        #: Repair outcome when ``recover=True`` met an existing log.
        self.recovery: RepairAction | None = self.log.recovery
        self._main = Memtable(options.memtable_records, options.value_size)
        self._stray = Memtable(options.memtable_records, options.value_size)
        self._owned: tuple[float, float] | None = None
        self._owned_inclusive_hi = False
        self._epoch: int | None = None
        self.stats = KoiDBStats()
        self.obs = obs_resolved
        self._tr_flush = self.obs.track("flush", f"rank {rank}")
        metrics = self.obs.metrics
        # one add per ingest call, none per record: the work count that
        # shows whether deliveries are coalesced per destination
        self._m_ingest_calls = metrics.counter("koidb.ingest_calls")
        self._m_records_in = metrics.counter("koidb.records_in")
        self._m_strays = metrics.counter("koidb.stray_records")
        self._m_ssts = metrics.counter("koidb.ssts_written")
        self._m_stray_ssts = metrics.counter("koidb.stray_ssts_written")
        self._m_bytes = metrics.counter("koidb.bytes_written")
        self._m_flushes = metrics.counter("koidb.memtable_flushes")
        # per-rank name: each rank records into its own registry, and
        # a shared histogram would make the merged snapshot depend on
        # cross-rank merge order (histograms merge by replacement).  The
        # cardinality is bounded by the receiver count, the sanctioned
        # exception to static instrument names.
        self._m_fill = metrics.histogram(
            f"koidb.memtable_fill_at_flush.r{rank}", (0.25, 0.5, 0.75, 0.9, 1.0)  # carp-lint: disable-line=O503
        )
        self._g_occupancy = metrics.gauge(
            f"koidb.memtable_occupancy.r{rank}"  # carp-lint: disable-line=O503
        )

    @classmethod
    def open(
        cls,
        rank: int,
        directory: Path | str,
        options: CarpOptions,
        obs: Obs | None = None,
        recover: bool = True,
        faults: Sequence[FaultSpec] | None = None,
    ) -> "KoiDB":
        """Re-open a rank's log after a crash (paper §V-A recovery).

        The log is repaired first — torn tail quarantined, file
        truncated back to the newest valid footer — then opened for
        appending, so the next ``begin_epoch`` continues on top of the
        surviving committed prefix.
        """
        return cls(
            rank, directory, options, obs=obs, faults=faults, recover=recover
        )

    # ------------------------------------------------------------- epochs

    def begin_epoch(self, epoch: int) -> None:
        if self._epoch is not None:
            raise RuntimeError("previous epoch not finished")
        self._epoch = epoch
        self._owned = None

    def finish_epoch(self) -> None:
        """Flush all buffered data and persist the epoch's manifest."""
        if self._epoch is None:
            raise RuntimeError("no epoch in progress")
        self._flush(self._main.drain(), stray=False)
        self._flush(self._stray.drain(), stray=True)
        self.log.flush_epoch(self._epoch)
        self._epoch = None

    def close(self) -> None:
        self.log.close()

    def set_request(self, request_id: str | None) -> None:
        """Attribute subsequent storage spans to one request.

        ``CarpRun`` calls it at the start of each epoch ingested under
        a request context, so flush spans carry the ``request`` arg of
        the epoch they belong to.  Only for recording stacks: the
        shared ``NULL_OBS`` must never be assigned a request id (the
        driver makes no such call when obs is off).
        """
        self.obs.request_id = request_id

    # ------------------------------------------------------------ routing

    def set_owned_range(self, lo: float, hi: float, inclusive_hi: bool) -> None:
        """Adopt the key range this rank owns under the newest table.

        This is KoiDB's *repartitioning* hook (paper §V-D).  Buffered
        records are re-classified against the new range: keys the rank
        no longer owns move to the stray memtable, so main SSTs stay
        tight no matter how far partition boundaries drift during a
        memtable's lifetime.  The stray memtable is then flushed so
        each stray SST stays local to one renegotiation burst — letting
        strays from many bursts pile up would give stray SSTs
        keyspace-wide ranges and defeat the optimization.
        """
        if hi < lo:
            raise ValueError("owned range must be non-empty")
        range_changed = self._owned != (lo, hi)
        self._owned = (lo, hi)
        self._owned_inclusive_hi = inclusive_hi
        if not (range_changed and self.options.separate_strays):
            return
        buffered = self._main.drain()
        if len(buffered):
            stray_mask = self._stray_mask(buffered.keys)
            if stray_mask is not None:
                self._stray.add(buffered.select(stray_mask))
                buffered = buffered.select(~stray_mask)
            self._add_bounded(self._main, buffered, stray=False)
        stray = self._stray.drain()
        if len(stray):
            self.stats.memtable_flushes += 1
            self._m_flushes.add(1)
            self._flush(stray, stray=True)

    def _stray_mask(self, keys: np.ndarray) -> np.ndarray | None:
        """Mask of the non-empty ``keys`` outside the owned range, or None if none are.

        The batch's extremes settle most calls without a mask: they widen
        to Python floats, so they compare in float64 exactly as the mask
        does, and a NaN extreme compares false and takes the mask path.
        """
        if self._owned is None:
            # before the first table of the epoch nothing is stray
            return None
        lo, hi = self._owned
        inclusive_hi = self._owned_inclusive_hi
        kmin, kmax = float(keys.min()), float(keys.max())
        if lo <= kmin and (kmax <= hi if inclusive_hi else kmax < hi):
            return None
        return ~active_kernels().interval_mask(np.asarray(keys), lo, hi, inclusive_hi)

    # ------------------------------------------------------------- ingest

    def ingest(self, batch: RecordBatch) -> int:
        """Accept a delivered shuffle batch; returns the stray count."""
        if self._epoch is None:
            raise RuntimeError("ingest outside an epoch")
        self._m_ingest_calls.add(1)
        n = len(batch)
        if n == 0:
            return 0
        self.stats.records_in += n
        stray_mask = self._stray_mask(batch.keys)
        n_stray = 0 if stray_mask is None else int(stray_mask.sum())
        self.stats.stray_records += n_stray
        self._m_records_in.add(n)
        self._m_strays.add(n_stray)
        if stray_mask is not None and n_stray and self.options.separate_strays:
            self._add_bounded(self._stray, batch.select(stray_mask), stray=True)
            self._add_bounded(self._main, batch.select(~stray_mask), stray=False)
        else:
            self._add_bounded(self._main, batch, stray=False)
        self._g_occupancy.set(len(self._main) / self._main.capacity)  # capacity >= 1
        return n_stray

    def _add_bounded(self, buf: Memtable, batch: RecordBatch, stray: bool) -> None:
        """Fill the memtable in capacity-sized slices.

        Keeps SSTable sizes pinned to the memtable capacity (the
        paper's 12 MB memtables yield ~12 MB SSTs) no matter how large
        an arriving shuffle batch is.
        """
        start = 0
        while start < len(batch):
            room = max(buf.capacity - len(buf), 0)
            if room == 0:
                self.stats.memtable_flushes += 1
                self._m_flushes.add(1)
                self._flush(buf.drain(), stray=stray)
                continue
            take = min(room, len(batch) - start)
            buf.add(batch.select(slice(start, start + take)))
            start += take
        if buf.is_full:
            self.stats.memtable_flushes += 1
            self._m_flushes.add(1)
            self._flush(buf.drain(), stray=stray)

    # -------------------------------------------------------------- flush

    def _flush(self, batch: RecordBatch, stray: bool) -> None:
        if len(batch) == 0:
            return
        assert self._epoch is not None
        self._m_fill.observe(len(batch) / max(self.options.memtable_records, 1))
        with self.obs.span(
            self._tr_flush, "flush-stray" if stray else "flush",
            dur=len(batch) * RECORD_TICK,
            args={"records": len(batch), "stray": stray},
        ) as span:
            bytes_before = self.stats.bytes_written
            sort = self.options.sort_ssts
            subparts = 1 if stray else self.options.subpartitions
            if subparts > 1:
                if sort:
                    batch = batch.sorted_by_key()
                # split into key-disjoint chunks of (nearly) equal record count
                cuts = np.linspace(0, len(batch), subparts + 1).astype(int)
                chunks = [
                    (i, batch.select(slice(cuts[i], cuts[i + 1])))
                    for i in range(subparts)
                    if cuts[i + 1] > cuts[i]
                ]
                for sub_id, chunk in chunks:
                    self._append(chunk, sort=False, stray=stray, sub_id=sub_id,
                                 already_sorted=sort)
            else:
                self._append(batch, sort=sort, stray=stray, sub_id=0)
            # the E event carries the exact bytes this flush appended,
            # so carp profile can join frame bytes against the
            # koidb.bytes_written counter with zero drift
            span.annotate({"bytes": self.stats.bytes_written - bytes_before})

    def _append(
        self,
        batch: RecordBatch,
        sort: bool,
        stray: bool,
        sub_id: int,
        already_sorted: bool = False,
    ) -> None:
        assert self._epoch is not None
        entry = self.log.append_batch(
            batch,
            self._epoch,
            sort=sort or already_sorted,
            stray=stray,
            sub_id=sub_id,
        )
        self.stats.ssts_written += 1
        if stray:
            self.stats.stray_ssts_written += 1
        self.stats.bytes_written += entry.length
        self._m_ssts.add(1)
        if stray:
            self._m_stray_ssts.add(1)
        self._m_bytes.add(entry.length)

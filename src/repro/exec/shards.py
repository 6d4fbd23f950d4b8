"""Driver-side shard plumbing for KoiDB ingest — the one ingest path.

``CarpRun`` routing never depends on a KoiDB response, so every run
treats each destination rank's KoiDB as a *replayed command stream*:
the driver buffers the per-rank sequence of
begin / set_owned_range / ingest / finish / close calls and submits it
to the shard that owns the rank, where
:func:`repro.exec.work.koidb_apply` replays it against a real KoiDB —
inline on ``SerialExecutor``, in a worker on ``ProcessExecutor``.
The per-rank sequence does not depend on the backend, so the rank's
log bytes do not either — that is the whole determinism argument.

:class:`KoiDBProxy` is the stand-in ``CarpRun`` holds instead of a
live ``KoiDB``; it exposes the same call surface plus the
driver-visible read side (``stats``, ``log.offset``), refreshed at
every :meth:`KoiDBShardClient.barrier`.  Driver code must only read
proxy state after a barrier — ``CarpRun`` barriers after the
finish-epoch fan-out, which is exactly where it reads stats.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.exec.api import Executor
from repro.exec.work import KoiDBApplyResult, KoiDBCommand, koidb_apply
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import NULL_OBS, Obs, SpanRecord
from repro.storage.koidb import KoiDBStats


class _ProxyLog:
    """Mirror of the worker-side ``LogWriter`` read surface."""

    __slots__ = ("offset",)

    def __init__(self) -> None:
        self.offset = 0


class KoiDBProxy:
    """Command-buffering stand-in for one rank's shard-held KoiDB."""

    __slots__ = ("rank", "stats", "log", "_client")

    def __init__(self, rank: int, client: "KoiDBShardClient") -> None:
        self.rank = rank
        self.stats = KoiDBStats()
        self.log = _ProxyLog()
        self._client = client

    def begin_epoch(self, epoch: int) -> None:
        self._client.enqueue(self.rank, ("begin", epoch))

    def set_owned_range(self, lo: float, hi: float, inclusive_hi: bool) -> None:
        self._client.enqueue(self.rank, ("own", lo, hi, inclusive_hi))

    def ingest(self, batch: RecordBatch) -> None:
        self._client.enqueue(self.rank, ("ingest", batch))

    def finish_epoch(self) -> None:
        self._client.enqueue(self.rank, ("finish",))

    def set_request(self, request_id: str | None) -> None:
        """Enqueue a request-context switch into the command stream.

        Replayed by ``koidb_apply`` as ``KoiDB.set_request`` at this
        stream position, so the rank's flush spans carry the epoch's
        ``request`` attribution.  Context commands carry no records and
        never trigger an auto-flush, so task boundaries — and therefore
        log bytes — are unchanged.
        """
        self._client.enqueue(self.rank, ("ctx", request_id))


class KoiDBShardClient:
    """Buffers per-rank KoiDB command streams and runs the barriers.

    One instance per ``CarpRun``; rank ``r`` is shard key
    ``r`` on the bound executor, so sticky assignment gives each worker
    a disjoint set of rank directories (shared-nothing ownership).
    Buffers auto-flush once a rank accumulates a memtable's worth of
    records, keeping task granularity coarse enough to amortize
    dispatch overhead.
    """

    def __init__(
        self,
        executor: Executor,
        directory: Path,
        options: CarpOptions,
        nreceivers: int,
        obs: Obs | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self._executor = executor
        self._directory = str(directory)
        self._options = options
        self._obs = obs if obs is not None else NULL_OBS
        self._record_obs = self._obs.enabled
        # rank-scoped fault specs ride along on every koidb_apply call;
        # the worker-side injector advances with the rank's command
        # stream, which is identical across backends
        self._fault_specs: list[tuple[FaultSpec, ...]] = [
            faults.specs_for_rank(r) if faults is not None else ()
            for r in range(nreceivers)
        ]
        self.proxies = [KoiDBProxy(r, self) for r in range(nreceivers)]
        self._buffers: list[list[KoiDBCommand]] = [[] for _ in range(nreceivers)]
        self._buffered_records = [0] * nreceivers
        self._flush_records = max(options.memtable_records, options.round_records)
        self._closed = False

    # --------------------------------------------------------- buffering

    def enqueue(self, rank: int, command: KoiDBCommand) -> None:
        if self._closed:
            # a command after close would make koidb_apply re-open
            # (and truncate) the rank log; refuse it
            raise RuntimeError(f"KoiDB shard for rank {rank} is closed")
        self._buffers[rank].append(command)
        if command[0] == "ingest":
            self._buffered_records[rank] += len(command[1])
            if self._buffered_records[rank] >= self._flush_records:
                self._submit(rank)

    def _submit(self, rank: int) -> None:
        commands = self._buffers[rank]
        if not commands:
            return
        self._buffers[rank] = []
        self._buffered_records[rank] = 0
        self._executor.submit(
            rank,
            koidb_apply,
            rank,
            self._directory,
            self._options,
            self._record_obs,
            commands,
            self._fault_specs[rank],
        )

    # ---------------------------------------------------------- barriers

    def barrier(self) -> None:
        """Flush every buffer, wait for the workers, sync proxy state.

        Worker metric deltas are merged into the driver registry in
        submission order (rank-major, deterministic); per-rank stats
        and log offsets replace the proxies' copies with the workers'
        newest cumulative values.  Span records (rank-local virtual
        timelines) are regrouped per rank and replayed into the driver
        tracer in ascending rank order, whatever order the tasks ran
        in, so the merged trace is bit-identical across backends.
        """
        for rank in range(len(self.proxies)):
            self._submit(rank)
        results = self._executor.drain()
        spans: dict[int, list[SpanRecord]] = {}
        for result in results:
            assert isinstance(result, KoiDBApplyResult)
            proxy = self.proxies[result.rank]
            proxy.stats = result.stats
            proxy.log.offset = result.log_offset
            self._obs.metrics.merge_worker_delta(result.metrics)
            if result.spans:
                # drain() preserves submission order per rank, so each
                # rank's records stay in emission order
                spans.setdefault(result.rank, []).extend(result.spans)
        for rank in sorted(spans):
            self._obs.tracer.merge_events(spans[rank])

    def close(self) -> None:
        """Enqueue a close for every rank and run the final barrier."""
        if self._closed:
            return
        for proxy in self.proxies:
            self.enqueue(proxy.rank, ("close",))
        self._closed = True
        self.barrier()

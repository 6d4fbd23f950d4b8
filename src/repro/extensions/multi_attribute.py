"""Multi-attribute queries: auxiliary sorted CARP indexes (paper §VIII).

The paper sketches a two-stage pipeline for indexing additional
attributes beyond the primary (clustered) one:

1. rows are shuffled by the primary attribute as usual; each receiver
   assigns row locations and, for every additional indexed attribute,
   emits ``(key, partition_id, row_id)`` tuples back into the shuffle;
2. receivers of those tuples write them to *separate* storage backend
   instances, where each entry points at the full row in the primary
   partition.

Queries on an auxiliary attribute find matching pointers with sorted-
index efficiency, then pay random reads into the primary partitions to
retrieve full rows — better than bitmap indexes in space and lookup,
worse than the clustered primary in retrieval (exactly the paper's
framing).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.carp import CarpRun, EpochStats
from repro.core.config import CarpOptions
from repro.core.records import RID_DTYPE, RecordBatch
from repro.query.engine import PartitionedStore, QueryResult
from repro.sim.iomodel import IOModel
from repro.storage.log import LogReader, list_logs, log_rank

PRIMARY_SUBDIR = "primary"
AUX_SUBDIR_PREFIX = "aux_"
LOCATOR_SUFFIX = ".rowloc"


class RowLocator:
    """rid -> primary partition mapping for one epoch.

    Stage 1 receivers know where every row landed; persisting that
    mapping is the "(key, partition_id, row_id)" pointer material of
    the paper's design.  Stored as parallel sorted arrays.
    """

    def __init__(self, rids: np.ndarray, partitions: np.ndarray) -> None:
        rids = np.asarray(rids, dtype=RID_DTYPE)
        partitions = np.asarray(partitions, dtype=np.int32)
        if len(rids) != len(partitions):
            raise ValueError("rids/partitions length mismatch")
        order = np.argsort(rids, kind="stable")
        self.rids = rids[order]
        self.partitions = partitions[order]
        if len(self.rids) > 1 and np.any(np.diff(self.rids) == 0):
            raise ValueError("duplicate rids in locator")

    def lookup(self, rids: np.ndarray) -> np.ndarray:
        """Primary partition of each rid; raises on unknown rids."""
        rids = np.asarray(rids, dtype=RID_DTYPE)
        idx = np.searchsorted(self.rids, rids)
        if np.any(idx >= len(self.rids)) or np.any(self.rids[np.minimum(idx, len(self.rids) - 1)] != rids):
            raise KeyError("locator lookup of unknown rid")
        return self.partitions[idx]

    def save(self, path: Path | str) -> None:
        with open(path, "wb") as fh:
            fh.write(np.int64(len(self.rids)).tobytes())
            fh.write(self.rids.tobytes())
            fh.write(self.partitions.tobytes())

    @classmethod
    def load(cls, path: Path | str) -> "RowLocator":
        with open(path, "rb") as fh:
            n = int(np.frombuffer(fh.read(8), dtype=np.int64)[0])
            rids = np.frombuffer(fh.read(8 * n), dtype=RID_DTYPE)
            partitions = np.frombuffer(fh.read(4 * n), dtype=np.int32)
        return cls(rids.copy(), partitions.copy())


@dataclass
class MultiAttributeResult:
    """Per-epoch stats of a multi-attribute ingest."""

    primary: EpochStats
    auxiliary: dict[str, EpochStats]


class MultiAttributeIngest:
    """Two-stage CARP ingest: clustered primary + sorted auxiliary indexes."""

    def __init__(
        self,
        nranks: int,
        out_dir: Path | str,
        aux_attributes: tuple[str, ...],
        options: CarpOptions | None = None,
    ) -> None:
        self.nranks = nranks
        self.out_dir = Path(out_dir)
        self.options = options or CarpOptions()
        self.aux_attributes = aux_attributes
        self._primary = CarpRun(nranks, self.out_dir / PRIMARY_SUBDIR, self.options)
        # auxiliary entries are tiny: a pointer-sized value per tuple
        aux_options = self.options.with_(value_size=8, subpartitions=1)
        self._aux = {
            name: CarpRun(nranks, self.out_dir / f"{AUX_SUBDIR_PREFIX}{name}",
                          aux_options)
            for name in aux_attributes
        }

    def close(self) -> None:
        self._primary.close()
        for run in self._aux.values():
            run.close()

    def __enter__(self) -> "MultiAttributeIngest":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def ingest_epoch(
        self,
        epoch: int,
        primary_streams: list[RecordBatch],
        aux_keys: dict[str, list[np.ndarray]],
    ) -> MultiAttributeResult:
        """Ingest one epoch.

        ``aux_keys[attr][r]`` are rank ``r``'s values for attribute
        ``attr`` — aligned element-for-element with
        ``primary_streams[r]``.
        """
        if set(aux_keys) != set(self.aux_attributes):
            raise ValueError("aux_keys must cover exactly the configured attributes")
        for name, per_rank in aux_keys.items():
            if len(per_rank) != self.nranks:
                raise ValueError(f"attribute {name}: need {self.nranks} streams")
            for r, (keys, stream) in enumerate(zip(per_rank, primary_streams)):
                if len(keys) != len(stream):
                    raise ValueError(
                        f"attribute {name}, rank {r}: length mismatch with primary"
                    )

        # stage 1: shuffle full rows by the primary attribute
        primary_stats = self._primary.ingest_epoch(epoch, primary_streams)
        locator = self._build_locator(epoch)
        locator.save(self.out_dir / f"{epoch}{LOCATOR_SUFFIX}")

        # stage 2: shuffle (aux key, row pointer) tuples per attribute
        aux_stats: dict[str, EpochStats] = {}
        for name in self.aux_attributes:
            tuple_streams = [
                RecordBatch(aux_keys[name][r], primary_streams[r].rids, 8)
                for r in range(self.nranks)
            ]
            aux_stats[name] = self._aux[name].ingest_epoch(epoch, tuple_streams)
        return MultiAttributeResult(primary=primary_stats, auxiliary=aux_stats)

    def _build_locator(self, epoch: int) -> RowLocator:
        """Scan the primary output to map rid -> landing partition."""
        rids: list[np.ndarray] = []
        parts: list[np.ndarray] = []
        for path in list_logs(self.out_dir / PRIMARY_SUBDIR):
            rank = log_rank(path)
            with LogReader(path) as reader:
                for entry in reader.entries_for(epoch=epoch):
                    batch = reader.read_sst(entry).batch
                    rids.append(batch.rids)
                    parts.append(np.full(len(batch), rank, dtype=np.int32))
        return RowLocator(np.concatenate(rids), np.concatenate(parts))


@dataclass(frozen=True)
class AuxQueryResult:
    """Result of an auxiliary-attribute range query."""

    aux_keys: np.ndarray
    rids: np.ndarray
    primary_keys: np.ndarray
    index_latency: float
    retrieval_latency: float

    @property
    def latency(self) -> float:
        return self.index_latency + self.retrieval_latency

    def __len__(self) -> int:
        return len(self.rids)


class AuxiliaryIndexReader:
    """Query client for a multi-attribute CARP output directory."""

    def __init__(self, out_dir: Path | str, io: IOModel | None = None) -> None:
        self.out_dir = Path(out_dir)
        self.io = io or IOModel()
        self.primary = PartitionedStore(self.out_dir / PRIMARY_SUBDIR, io=self.io)
        self._locators: dict[int, RowLocator] = {}

    def close(self) -> None:
        self.primary.close()

    def __enter__(self) -> "AuxiliaryIndexReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _locator(self, epoch: int) -> RowLocator:
        if epoch not in self._locators:
            self._locators[epoch] = RowLocator.load(
                self.out_dir / f"{epoch}{LOCATOR_SUFFIX}"
            )
        return self._locators[epoch]

    def query(self, attr: str, epoch: int, lo: float, hi: float) -> AuxQueryResult:
        """Range query on an auxiliary attribute.

        Sorted-index lookup over the aux partitions, then random-read
        retrieval of the full rows from the primary partitions.
        """
        with PartitionedStore(
            self.out_dir / f"{AUX_SUBDIR_PREFIX}{attr}", io=self.io
        ) as aux_store:
            pointer_result: QueryResult = aux_store.query(epoch, lo, hi)
        rids = pointer_result.rids
        locator = self._locator(epoch)
        partitions = locator.lookup(rids) if len(rids) else np.empty(0, np.int32)
        # retrieve the full rows (verifies pointers against real data)
        primary_keys = self._fetch_primary_keys(epoch, rids, partitions)
        record_size = 4 + 56
        retrieval = self.io.random_read_time(len(rids) * record_size, len(rids))
        return AuxQueryResult(
            aux_keys=pointer_result.keys,
            rids=rids,
            primary_keys=primary_keys,
            index_latency=pointer_result.cost.latency,
            retrieval_latency=retrieval,
        )

    def _fetch_primary_keys(
        self, epoch: int, rids: np.ndarray, partitions: np.ndarray
    ) -> np.ndarray:
        """Fetch the primary keys of the pointed-to rows."""
        if len(rids) == 0:
            return np.empty(0, dtype=np.float32)
        out = np.empty(len(rids), dtype=np.float32)
        wanted_order = np.argsort(rids, kind="stable")
        want = rids[wanted_order]
        found = np.zeros(len(rids), dtype=bool)
        for part in np.unique(partitions):
            path = self.out_dir / PRIMARY_SUBDIR
            for log_path in list_logs(path):
                if log_rank(log_path) != part:
                    continue
                with LogReader(log_path) as reader:
                    for entry in reader.entries_for(epoch=epoch):
                        batch = reader.read_sst(entry).batch
                        idx = np.searchsorted(want, batch.rids)
                        idx = np.clip(idx, 0, len(want) - 1)
                        hit = want[idx] == batch.rids
                        out[wanted_order[idx[hit]]] = batch.keys[hit]
                        found[wanted_order[idx[hit]]] = True
        if not found.all():
            raise KeyError("auxiliary pointer referenced a missing primary row")
        return out

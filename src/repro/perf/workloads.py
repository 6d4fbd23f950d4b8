"""Deterministic workload specs for the carp perf harness.

Each :class:`WorkloadSpec` pins everything that influences the
measured numbers: the workload kind (ingest / query / compact / …),
the synthetic-trace seed and sizes.  No row reads a host clock — how
fast a workload runs is the ledger's question (``ledger/``), not this
registry's.

Sizes are small on purpose (a CI perf job runs every workload on
every push); the counts and modeled costs they gate are deterministic,
so a small workload is just as sensitive to a cost-model or plumbing
change as a large one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import CarpOptions


@dataclass(frozen=True)
class WorkloadSpec:
    """One deterministic benchmark workload."""

    name: str
    #: ``ingest`` | ``query`` | ``compact`` | ``obs-overhead`` | ``serve``
    kind: str
    nranks: int = 4
    records_per_rank: int = 600
    epochs: int = 2
    #: query-service workers (serve workloads)
    workers: int = 2
    seed: int = 11
    #: range queries per epoch (query workloads) / per client phase
    #: (serve workloads)
    queries: int = 4
    #: records per compacted SST (compact workloads)
    sst_records: int = 512
    #: concurrent closed-loop clients (serve workloads)
    clients: int = 8
    #: records per memtable, so per full SST (one 256-record key chunk
    #: by default)
    memtable_records: int = 256

    def options(self) -> CarpOptions:
        return CarpOptions(
            pivot_count=32,
            oob_capacity=32,
            renegotiations_per_epoch=3,
            memtable_records=self.memtable_records,
            round_records=128,
            value_size=8,
        )


def _registry() -> dict[str, WorkloadSpec]:
    specs = [
        WorkloadSpec("ingest-serial", "ingest"),
        # full SSTs of four key chunks, so zone-map pruning inside an
        # SST shows in query_key_chunks_read/_skipped
        WorkloadSpec("query-serial", "query", records_per_rank=4096,
                     memtable_records=1024),
        WorkloadSpec("compact-serial", "compact"),
        WorkloadSpec("obs-overhead", "obs-overhead"),
        # the serving plane under concurrent ingest: >= 8 closed-loop
        # clients against Session.serve() while epochs keep committing
        WorkloadSpec("serve-mixed", "serve", epochs=3, workers=3, clients=8),
    ]
    return {s.name: s for s in specs}


#: All registered workloads, by name.
WORKLOADS: dict[str, WorkloadSpec] = _registry()

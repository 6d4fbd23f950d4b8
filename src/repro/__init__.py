"""CARP: range query-optimized in-situ indexing for streaming data.

A laptop-scale Python reproduction of *CARP: Range Query-Optimized
Indexing for Streaming Data* (Jain et al., SC 2024): an adaptive range
partitioner that reorders scientific application output while it
streams to storage, approximating the query performance of a fully
sorted clustered index with zero write amplification.

Quick start::

    from repro import CarpRun, CarpOptions, PartitionedStore
    from repro.obs import Obs
    from repro.traces.vpic import VpicTraceSpec, generate_timestep

    spec = VpicTraceSpec(nranks=16, particles_per_rank=10_000)
    with CarpRun(16, "out/", CarpOptions()) as run:
        run.ingest_epoch(0, generate_timestep(spec, 0))
    with PartitionedStore("out/") as store:
        result = store.query(0, 1.0, 4.0, obs=Obs.recording())
        print(len(result), result.cost.latency)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured reproduction of every table and figure.
"""

from repro.api import Session
from repro.core.carp import CarpRun, EpochStats
from repro.core.config import CarpOptions, PAPER_OPTIONS, TEST_OPTIONS
from repro.core.partition import PartitionTable, load_stddev
from repro.core.records import RecordBatch, make_rids
from repro.query.engine import PartitionedStore, QueryResult
from repro.query.request import QueryRequest, QueryResponse
from repro.query.service import QueryService
from repro.sim.cluster import ClusterSpec, PAPER_CLUSTER
from repro.sim.iomodel import IOModel
from repro.sim.netmodel import NetModel
from repro.storage.compactor import compact_all_epochs, compact_epoch
from repro.storage.koidb import KoiDB
from repro.storage.snapshot import Snapshot, pin_snapshot

__version__ = "1.0.0"

__all__ = [
    "CarpRun",
    "CarpOptions",
    "ClusterSpec",
    "EpochStats",
    "IOModel",
    "KoiDB",
    "NetModel",
    "PAPER_CLUSTER",
    "PAPER_OPTIONS",
    "PartitionTable",
    "PartitionedStore",
    "QueryRequest",
    "QueryResponse",
    "QueryResult",
    "QueryService",
    "RecordBatch",
    "Session",
    "Snapshot",
    "TEST_OPTIONS",
    "compact_all_epochs",
    "compact_epoch",
    "load_stddev",
    "make_rids",
    "pin_snapshot",
    "__version__",
]

"""Query engine: range queries, typed serving surface, quality metrics."""

from repro.query.engine import PartitionedStore, QueryCost, QueryResult
from repro.query.explain import LogExplain, QueryExplain
from repro.query.metrics import (
    raf_percentiles,
    read_amplification_profile,
    selectivity,
    selectivity_profile,
)
from repro.query.reader import (
    BatchQuerySpec,
    BatchResult,
    StoreAnalysis,
    analyze_store,
    read_batch_csv,
    run_batch,
    write_batch_csv,
)
from repro.query.request import (
    LIVE_TOKEN,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    QueryRequest,
    QueryResponse,
    response_from_result,
)
from repro.query.service import PendingQuery, QueryService, ServeStats

__all__ = [
    "PartitionedStore", "QueryCost", "QueryResult",
    "LogExplain", "QueryExplain", "raf_percentiles",
    "read_amplification_profile", "selectivity", "selectivity_profile",
    "BatchQuerySpec", "BatchResult", "StoreAnalysis", "analyze_store",
    "read_batch_csv", "run_batch", "write_batch_csv",
    "LIVE_TOKEN", "STATUS_DEADLINE_EXCEEDED", "STATUS_ERROR", "STATUS_OK",
    "STATUS_REJECTED", "QueryRequest", "QueryResponse",
    "response_from_result", "PendingQuery", "QueryService", "ServeStats",
]

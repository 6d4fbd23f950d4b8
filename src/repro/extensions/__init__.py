"""Paper §VIII extensions: multi-attribute indexes, incremental sorting,
columnar interop."""

from repro.extensions.columnar import ColumnarReader, write_columnar
from repro.extensions.incremental_sort import IncrementalSorter, IntervalSet
from repro.extensions.multi_attribute import (
    AuxiliaryIndexReader,
    MultiAttributeIngest,
    RowLocator,
)
from repro.extensions.planner import PlanChoice, PlannedResult, QueryPlanner

__all__ = [
    "ColumnarReader", "write_columnar", "IncrementalSorter", "IntervalSet",
    "AuxiliaryIndexReader", "MultiAttributeIngest", "RowLocator",
    "PlanChoice", "PlannedResult", "QueryPlanner",
]

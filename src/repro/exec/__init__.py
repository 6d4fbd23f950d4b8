"""``repro.exec`` — the serial executor and the per-log query probe.

:class:`SerialExecutor` runs compaction's one task per epoch
(``compact_all_epochs``).  Ingest never enters it: ``CarpRun`` calls
each receiver rank's ``KoiDB`` directly.  Queries never enter it
either: ``PartitionedStore`` probes each log inline through
:func:`repro.exec.work.probe_entries`.  ``docs/PARALLELISM.md``
records why there is no parallel backend.
"""

from __future__ import annotations

from repro.exec.api import (
    ExecutorError,
    SerialExecutor,
    TaskFn,
    WorkerTaskError,
)
from repro.exec.factory import resolve_executor

__all__ = [
    "SerialExecutor",
    "TaskFn",
    "ExecutorError",
    "WorkerTaskError",
    "resolve_executor",
]

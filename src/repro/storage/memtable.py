"""Memtables.

KoiDB collects shuffled records in a memory buffer; when it fills, the
contents are compacted into an SSTable and appended to the log (paper
§V-D).  The paper overlaps that flush with a second buffer that keeps
accepting records; in this single-process reproduction the flush is
synchronous, so one buffer per stream (main, stray) is the whole
structure.
"""

from __future__ import annotations

from repro.core.records import RecordBatch


class Memtable:
    """A bounded in-memory accumulation buffer of record batches."""

    def __init__(self, capacity_records: int, value_size: int) -> None:
        if capacity_records < 1:
            raise ValueError("capacity_records must be >= 1")
        self.capacity = capacity_records
        self.value_size = value_size
        self._chunks: list[RecordBatch] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        return self._count >= self.capacity

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self._chunks)

    def add(self, batch: RecordBatch) -> None:
        """Append a batch; the table may exceed capacity transiently —
        the owner is expected to check :attr:`is_full` and flush."""
        if len(batch) == 0:
            return
        if batch.value_size != self.value_size:
            raise ValueError("batch value_size does not match memtable")
        self._chunks.append(batch)
        self._count += len(batch)

    def drain(self) -> RecordBatch:
        """Remove and return the full contents."""
        batch = (
            RecordBatch.concat(self._chunks)
            if self._chunks
            else RecordBatch.empty(self.value_size)
        )
        self._chunks = []
        self._count = 0
        return batch

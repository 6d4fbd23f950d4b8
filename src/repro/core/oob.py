"""Out-Of-Bounds buffers.

When a sender encounters a key outside the current partition table's
bounds there is no valid shuffle destination for it, so the record is
parked in an in-memory per-rank OOB buffer (paper §V-B).  When the
buffer fills, a renegotiation is triggered; the buffered keys are
factored into the new partition table and then flushed to their new
destinations.  The same mechanism bootstraps each epoch: with no table
yet, *every* record is out of bounds.
"""

from __future__ import annotations

import numpy as np

from repro.core.records import RecordBatch


class OOBBuffer:
    """A bounded per-rank buffer for records with no shuffle destination."""

    def __init__(self, capacity: int, value_size: int) -> None:
        if capacity < 1:
            raise ValueError(f"OOB capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.value_size = value_size
        self._chunks: list[RecordBatch] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        return self._count >= self.capacity

    @property
    def room(self) -> int:
        return max(0, self.capacity - self._count)

    def add(self, batch: RecordBatch) -> RecordBatch:
        """Buffer as much of ``batch`` as fits; return the overflow.

        The caller must react to a non-empty overflow by triggering a
        renegotiation and retrying the overflow against the new table.
        """
        take = min(len(batch), self.room)
        if take:
            self._chunks.append(batch.select(slice(take)))
            self._count += take
        if take == len(batch):
            return RecordBatch.empty(self.value_size)
        return batch.select(slice(take, None))

    def keys(self) -> np.ndarray:
        """A view of all buffered keys (for pivot computation)."""
        if not self._chunks:
            return np.empty(0, dtype=np.float32)
        return np.concatenate([c.keys for c in self._chunks])

    def drain(self) -> RecordBatch:
        """Remove and return everything buffered (after a renegotiation)."""
        batch = RecordBatch.concat(self._chunks) if self._chunks else RecordBatch.empty(
            self.value_size
        )
        self._chunks = []
        self._count = 0
        return batch

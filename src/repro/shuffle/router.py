"""Shuffle destination computation.

CARP routes each record to the rank owning its key range; DeltaFS (the
baseline) routes by a hash of the record id.  Both routers are total:
every record either gets a destination in ``[0, nranks)`` or, for the
range router, the sentinel :data:`~repro.core.partition.OOB_DEST` when
its key is outside the current partition table.
"""

from __future__ import annotations

import numpy as np

from repro.core.partition import OOB_DEST, PartitionTable
from repro.core.records import RecordBatch
from repro.kernels import active_kernels


def range_route(batch: RecordBatch, table: PartitionTable) -> np.ndarray:
    """CARP routing: destination = partition owning the key."""
    return table.lookup(batch.keys)


def hash_route(batch: RecordBatch, nranks: int) -> np.ndarray:
    """DeltaFS routing: destination = hash(rid) mod nranks.

    Uses a 64-bit splitmix-style mix so destinations are uniform even
    for sequential rids.
    """
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    x = batch.rids.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return (x % np.uint64(nranks)).astype(np.int64)


def split_by_destination(
    batch: RecordBatch, dests: np.ndarray
) -> tuple[dict[int, RecordBatch], RecordBatch]:
    """Partition a batch by destination.

    Returns ``(per_dest, oob)`` where ``per_dest`` maps each in-bounds
    destination to its sub-batch and ``oob`` holds the records whose
    destination was :data:`OOB_DEST`.

    Grouping goes through :func:`~repro.kernels.active_kernels`, which
    emits groups in ascending destination order with original batch
    order inside each group, as the per-record test oracle does: that
    fixes the shuffle send order, and therefore the on-disk log bytes.
    """
    dests = np.asarray(dests)
    if len(dests) != len(batch):
        raise ValueError("dests length must match batch length")
    oob = RecordBatch.empty(batch.value_size)
    per_dest: dict[int, RecordBatch] = {}
    for dest, indices in active_kernels().group_runs(dests):
        if dest == OOB_DEST:
            oob = batch.select(indices)
        else:
            per_dest[dest] = batch.select(indices)
    return per_dest, oob

"""The kernel seam: one table of hot-path primitives.

CARP's per-record work — shuffle routing, in-range filtering, stray
classification, destination grouping, and SST key/value block
encode/decode — funnels through a :class:`Kernels` table:

* ``vector`` (:mod:`repro.kernels.vector`) — NumPy batch kernels:
  compare-count routing, vectorized masks, radix-sorted grouping,
  bulk struct-free block codecs over memoryviews.  The one table
  ``src/`` runs.
* ``scalar`` (``tests/kernels/scalar.py``) — the per-record test
  oracle: explicit Python loops, ``bisect`` routing, ``struct``
  codecs.  Slow on purpose; it exists so the vector table is
  *differentially testable*.

The contract (docs/PERFORMANCE.md, INVARIANTS.md): the two tables are
**observationally equivalent** — identical destinations, masks, group
orders, and encoded bytes for identical inputs, bit for bit, including
non-finite and negative-zero float32 keys.  ``tests/kernels/`` proves
it end to end (log bytes, query digests, metrics, trace.json).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

#: Destination sentinel for keys outside the partition table — must
#: equal :data:`repro.core.partition.OOB_DEST` (asserted in tests;
#: kernels cannot import it without a cycle).
OOB_DEST = -1


@dataclass(frozen=True)
class Kernels:
    """One backend's implementations of the hot-path primitives.

    Every slot is a plain function (no state), so a ``Kernels`` table
    is safe to share across threads and cheap to swap for tests.

    route(bounds, keys)
        Partition lookup: ``bounds`` is the float64 strictly-increasing
        boundary array of a partition table, ``keys`` the batch keys.
        Returns int64 destinations; a key equal to ``bounds[-1]`` lands
        in the last partition, keys outside ``[bounds[0], bounds[-1]]``
        map to :data:`OOB_DEST`.  NaN keys (never produced by the
        pipeline, pinned by the edge-case corpus) map to ``nparts``.
    range_mask(keys, lo, hi)
        Boolean mask of keys in the closed range ``[lo, hi]``,
        compared in float64 (see :func:`repro.core.records.range_mask`
        for why the width matters).
    interval_mask(keys, lo, hi, inclusive_hi)
        Boolean mask of keys inside ``[lo, hi)`` (or ``[lo, hi]`` when
        ``inclusive_hi``) — the owned-range test behind KoiDB stray
        classification.
    group_runs(dests)
        Destination grouping for the shuffle: returns
        ``(dest, indices)`` pairs in ascending destination order, each
        index array in original batch order — exactly the send order
        the driver replays into the fabric.
    encode_keys(keys) / decode_keys(payload)
        Key-block payload codec (little-endian float32, no CRC — the
        CRC frame stays in :mod:`repro.storage.blocks`).  Bit-exact:
        NaN payloads survive a round trip unchanged.
    encode_values(rids, value_size) / decode_values(payload, value_size)
        Value-block payload codec: per record, the rid (8 B LE) plus
        deterministic filler bytes ``(rid + j) mod 256``.  The encoder
        returns any flat bytes-like buffer (the vector backend hands
        back its array's memory rather than a ``bytes`` copy).
    filler_matches(payload, rids, value_size)
        Verify the filler bytes of a decoded value-block payload.
    """

    name: str
    route: Callable[[np.ndarray, np.ndarray], np.ndarray]
    range_mask: Callable[[np.ndarray, float, float], np.ndarray]
    interval_mask: Callable[[np.ndarray, float, float, bool], np.ndarray]
    group_runs: Callable[[np.ndarray], list[tuple[int, np.ndarray]]]
    encode_keys: Callable[[np.ndarray], bytes]
    decode_keys: Callable[["_Buffer"], np.ndarray]
    encode_values: Callable[[np.ndarray, int], "_Buffer"]
    decode_values: Callable[["_Buffer", int], np.ndarray]
    filler_matches: Callable[["_Buffer", np.ndarray, int], bool]


#: Anything the block decoders accept: bytes from a file read or a
#: zero-copy memoryview slice of an mmap-backed log reader.
_Buffer = bytes | bytearray | memoryview

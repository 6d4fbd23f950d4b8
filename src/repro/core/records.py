"""Record batches: the unit of data flowing through CARP.

The paper's workload is VPIC particle output: each record is a 4-byte
float32 key (particle energy — the indexed attribute) followed by a
56-byte payload holding the remaining particle attributes.  This module
represents streams of such records as *structure-of-arrays* batches so
that routing, histogramming and storage can all be vectorized with
NumPy.

A record is identified by a 64-bit *record id* (``rid``) encoding the
producing rank and a per-rank sequence number.  Rids make end-to-end
tests exact: after a full CARP ingest + query, the set of rids returned
for a range must equal the set produced by a brute-force filter of the
input trace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.kernels import active_kernels

KEY_DTYPE = np.dtype("<f4")
RID_DTYPE = np.dtype("<u8")

#: Number of bits reserved for the per-rank sequence number in a rid.
RID_SEQ_BITS = 40
RID_SEQ_MASK = (1 << RID_SEQ_BITS) - 1

#: Paper record geometry: 4-byte key + 56-byte payload.
PAPER_KEY_SIZE = 4
PAPER_VALUE_SIZE = 56
PAPER_RECORD_SIZE = PAPER_KEY_SIZE + PAPER_VALUE_SIZE


def range_mask(keys: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Boolean mask of keys in the closed range ``[lo, hi]``.

    Comparison is performed in float64.  This matters: float32 keys
    compared against a Python-float bound would otherwise be compared
    in float32 (NumPy's weak scalar promotion), which disagrees at the
    boundaries with the float64 comparisons used for manifest-range
    pruning — an SST could be pruned while its keys would have matched.

    Dispatches through :func:`~repro.kernels.active_kernels`; the
    kernels and their test oracle honour the float64 contract above.
    """
    return active_kernels().range_mask(np.asarray(keys), lo, hi)


_F32_MAX = float(np.finfo(KEY_DTYPE).max)
_F32_INF = np.float32(np.inf)
_F32_ZERO = np.float32(0)
_LOW31 = np.int32(0x7FFFFFFF)
_HALF = np.int64(32)
_LOW32 = np.int64(0xFFFFFFFF)


@functools.lru_cache(maxsize=256)
def _f32_bounds(lo: float, hi: float) -> tuple[np.float32, np.float32]:
    """The smallest float32 ``>= lo`` and the largest float32 ``<= hi``.

    A float32 key ``k`` satisfies ``lo <= k`` in float64 exactly when
    it satisfies ``lo32 <= k`` in float32, and likewise for ``hi``, so a
    search on the rounded bounds reproduces the float64 comparison.
    The rounded value is compared as a Python float: comparing the
    ``np.float32`` scalar with ``lo`` would round ``lo`` to float32 first
    (NumPy's weak scalar promotion) and never see the overshoot.
    """
    if lo > _F32_MAX:
        lo32 = _F32_INF
    elif lo < -_F32_MAX:
        lo32 = -_F32_INF if lo == -np.inf else np.float32(-_F32_MAX)
    else:
        lo32 = np.float32(lo)
        if float(lo32) < lo:
            lo32 = np.nextafter(lo32, _F32_INF)
    if hi < -_F32_MAX:
        hi32 = -_F32_INF
    elif hi > _F32_MAX:
        hi32 = _F32_INF if hi == np.inf else np.float32(_F32_MAX)
    else:
        hi32 = np.float32(hi)
        if float(hi32) > hi:
            hi32 = np.nextafter(hi32, -_F32_INF)
    return lo32, hi32


def sorted_range(keys: np.ndarray, lo: float, hi: float) -> slice:
    """Rows of ascending float32 ``keys`` in ``[lo, hi]``, by binary search.

    The slice covers exactly ``np.flatnonzero(range_mask(keys, lo, hi))``
    under the float64 contract of :func:`range_mask`: the bounds are
    rounded to float32 conservatively, then two ``searchsorted`` calls
    find the run.  A NaN bound, like ``hi < lo``, matches nothing.
    """
    if not lo <= hi:
        return slice(0, 0)
    lo32, hi32 = _f32_bounds(float(lo), float(hi))
    start = int(keys.searchsorted(lo32, "left"))
    # lo and hi between the same two adjacent float32s round past each
    # other; the run is then empty
    return slice(start, max(start, int(keys.searchsorted(hi32, "right"))))


def make_rids(rank: int, start_seq: int, count: int) -> np.ndarray:
    """Build ``count`` record ids for ``rank`` starting at ``start_seq``.

    The rid layout is ``rank << RID_SEQ_BITS | seq``, which keeps ids
    unique across ranks for up to 2**24 ranks and 2**40 records per rank.
    """
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    if start_seq < 0 or start_seq + count > RID_SEQ_MASK:
        raise ValueError("sequence range overflows rid encoding")
    base = np.uint64(rank) << np.uint64(RID_SEQ_BITS)
    seqs = np.arange(start_seq, start_seq + count, dtype=np.uint64)
    return (base | seqs).astype(RID_DTYPE)


def rid_rank(rids: np.ndarray) -> np.ndarray:
    """Extract the producing rank from rids (vectorized)."""
    return (np.asarray(rids, dtype=np.uint64) >> np.uint64(RID_SEQ_BITS)).astype(np.int64)


def rid_seq(rids: np.ndarray) -> np.ndarray:
    """Extract the per-rank sequence number from rids (vectorized)."""
    return (np.asarray(rids, dtype=np.uint64) & np.uint64(RID_SEQ_MASK)).astype(np.int64)


@dataclass
class RecordBatch:
    """A batch of records in structure-of-arrays form.

    Attributes
    ----------
    keys:
        float32 array of indexed-attribute values.
    rids:
        uint64 array of record ids, same length as ``keys``.
    value_size:
        On-disk payload size per record in bytes.  The payload itself is
        deterministic: the rid followed by filler derived from the rid
        (see :mod:`repro.storage.blocks`), so batches do not need to
        carry payload bytes in memory.
    """

    keys: np.ndarray
    rids: np.ndarray
    value_size: int = PAPER_VALUE_SIZE

    def __post_init__(self) -> None:
        self.keys = np.asarray(self.keys, dtype=KEY_DTYPE)
        self.rids = np.asarray(self.rids, dtype=RID_DTYPE)
        if self.keys.ndim != 1 or self.rids.ndim != 1:
            raise ValueError("keys and rids must be 1-D arrays")
        if len(self.keys) != len(self.rids):
            raise ValueError(
                f"keys/rids length mismatch: {len(self.keys)} vs {len(self.rids)}"
            )
        if self.value_size < RID_DTYPE.itemsize:
            raise ValueError(
                f"value_size must hold at least a rid ({RID_DTYPE.itemsize} bytes)"
            )
        if len(self.keys) and not np.isfinite(self.keys).all():
            raise ValueError("keys must be finite (no NaN/inf)")

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def record_size(self) -> int:
        """Bytes per record as laid out on disk (key + payload)."""
        return KEY_DTYPE.itemsize + self.value_size

    @property
    def nbytes(self) -> int:
        """Total on-disk bytes this batch will occupy."""
        return len(self) * self.record_size

    @classmethod
    def _derived(
        cls, keys: np.ndarray, rids: np.ndarray, value_size: int
    ) -> "RecordBatch":
        """Build a batch from arrays derived from validated batches.

        Skips ``__post_init__``: every input already passed its checks
        (dtype, 1-D, equal lengths, ``value_size``, finite keys), and
        selecting, reordering or concatenating rows preserves them.
        Arrays from a caller or from disk go through the public
        constructor instead.
        """
        batch = cls.__new__(cls)
        batch.keys = keys
        batch.rids = rids
        batch.value_size = value_size
        return batch

    def select(self, mask_or_index: np.ndarray | slice) -> "RecordBatch":
        """Return a sub-batch selected by boolean mask, index array or slice.

        A slice returns views of this batch's arrays, not copies.
        """
        return RecordBatch._derived(
            self.keys[mask_or_index], self.rids[mask_or_index], self.value_size
        )

    def sorted_by_key(self) -> "RecordBatch":
        """Return a copy of this batch sorted by key (stable).

        The order is exactly ``np.argsort(self.keys, kind="stable")``,
        found by one sort of packed 64-bit integers instead: the high
        32 bits map each key's float32 bit pattern to an int32 with the
        same order (``key + 0`` first folds -0.0 into +0.0, which
        compares equal to it), and the low 32 bits hold the row index,
        which breaks ties by position.  Keys are finite (a batch
        invariant); the batch must hold fewer than ``2**32`` rows.
        """
        n = len(self.keys)
        if n >= 1 << 32:
            raise ValueError(f"cannot sort a batch of {n} rows (limit 2**32 - 1)")
        bits = (self.keys + _F32_ZERO).view(np.int32)
        # negative floats order backwards as int32: flip all but the sign
        bits ^= (bits >> 31) & _LOW31
        packed = bits.astype(np.int64)
        packed <<= _HALF
        packed |= np.arange(n, dtype=np.int64)
        packed.sort()
        # the low halves are the row order; kept as int64, the index
        # dtype both takes use without a cast
        packed &= _LOW32
        return RecordBatch._derived(
            np.take(self.keys, packed), np.take(self.rids, packed), self.value_size
        )

    @classmethod
    def empty(cls, value_size: int = PAPER_VALUE_SIZE) -> "RecordBatch":
        return cls(
            np.empty(0, dtype=KEY_DTYPE), np.empty(0, dtype=RID_DTYPE), value_size
        )

    @classmethod
    def concat(cls, batches: list["RecordBatch"]) -> "RecordBatch":
        """Concatenate batches; all non-empty ones must share ``value_size``.

        An all-empty input keeps the first batch's ``value_size``.
        """
        nonempty = [b for b in batches if len(b)]
        if not nonempty:
            return cls.empty(batches[0].value_size if batches else PAPER_VALUE_SIZE)
        sizes = {b.value_size for b in nonempty}
        if len(sizes) != 1:
            raise ValueError(f"mixed value sizes in concat: {sorted(sizes)}")
        return cls._derived(
            np.concatenate([b.keys for b in nonempty]),
            np.concatenate([b.rids for b in nonempty]),
            nonempty[0].value_size,
        )

    @classmethod
    def from_keys(
        cls, keys: np.ndarray, rank: int = 0, start_seq: int = 0,
        value_size: int = PAPER_VALUE_SIZE,
    ) -> "RecordBatch":
        """Convenience constructor assigning fresh rids to raw keys."""
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        return cls(keys, make_rids(rank, start_seq, len(keys)), value_size)

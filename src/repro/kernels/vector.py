"""Vectorized (NumPy) kernels — the production hot-path backend.

These are batch implementations of the :class:`~repro.kernels.api.Kernels`
slots, each one cheap pass over a whole shuffle pass's records:
routing by one float64 comparison per pivot bound into an ``int8``
counter (``np.searchsorted`` for long tables), vectorized
closed/half-open range masks, destination grouping by a radix-sortable
narrow-integer stable sort, and bulk struct-free key/value block
codecs.  Decoders read straight from any buffer (including memoryview
slices of an mmap-backed log); the value encoder gathers rows of a
cached 256-row filler template and returns the array's buffer without
copying it.

Observational equivalence with the per-record oracle
(``tests/kernels/scalar.py``) is the load-bearing contract: any
behavioural drift here is a bug even if it "looks faster" (see
tests/kernels/).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.kernels.api import OOB_DEST, Kernels

KEY_DTYPE = np.dtype("<f4")
RID_DTYPE = np.dtype("<u8")


def _widen(keys: np.ndarray) -> np.ndarray:
    """float32 keys -> float64, silently accepting any bit pattern.

    Widening a *signaling* NaN raises the FP-invalid flag in hardware
    (numpy turns that into a RuntimeWarning); the result is still the
    quieted NaN the comparison semantics expect, so the warning is
    noise for kernels documented to take arbitrary key bit patterns
    (the edge-case corpus feeds them on purpose).
    """
    with np.errstate(invalid="ignore"):
        return np.asarray(keys, dtype=np.float64)


#: Longest bounds table :func:`route` compares against key by key; a
#: longer one is binary-searched.  Each bound costs one float64 compare
#: and one ``int8`` add per key (~0.4 ns/key on 32k-key batches, against
#: ~35 ns/key for ``searchsorted`` on fresh keys), and the ``int8``
#: counter holds at most ``len(bounds)``.
ROUTE_COMPARE_MAX_BOUNDS = 64


def route(bounds: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Vectorized partition lookup against the pivot bounds.

    Counts the bounds above each key: ``nparts - #{b : key < b}`` is
    exactly ``bisect_right(bounds, key) - 1``, NaN included (it is
    below no bound, so it lands on ``nparts``).  The top bound is
    counted as ``key <= hi`` instead, which folds ``key == hi`` into
    the last partition, and a key above ``hi`` is counted
    ``nparts + 1`` times, which makes it :data:`OOB_DEST` like a key
    below ``bounds[0]``.
    """
    keys = _widen(keys)
    nparts = len(bounds) - 1
    if len(bounds) > ROUTE_COMPARE_MAX_BOUNDS:
        return _route_search(bounds, keys)
    hi = bounds[-1]
    above = np.less_equal(keys, hi).view(np.int8)
    hit = np.empty(len(keys), dtype=np.bool_)
    for bound in bounds[:-1]:
        np.less(keys, bound, out=hit)
        above += hit.view(np.int8)
    np.greater(keys, hi, out=hit)
    above += hit.view(np.int8) * np.int8(nparts + 1)
    return np.subtract(nparts, above, dtype=np.int64)


def _route_search(bounds: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """:func:`route` by ``np.searchsorted``, for long bounds tables."""
    dest = np.searchsorted(bounds, keys, side="right") - 1
    # key == hi lands at index nparts; fold into the last partition.
    dest = np.where(keys == bounds[-1], len(bounds) - 2, dest)
    oob = (keys < bounds[0]) | (keys > bounds[-1])
    dest = np.where(oob, OOB_DEST, dest)
    return dest.astype(np.int64)


def range_mask(keys: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Vectorized closed-range filter, compared in float64."""
    keys = _widen(keys)
    return (keys >= lo) & (keys <= hi)


def interval_mask(
    keys: np.ndarray, lo: float, hi: float, inclusive_hi: bool
) -> np.ndarray:
    """Vectorized owned-range test (half-open, optionally closed top)."""
    keys = _widen(keys)
    if inclusive_hi:
        return (keys >= lo) & (keys <= hi)
    return (keys >= lo) & (keys < hi)


_NARROW_INTS: tuple[type[np.signedinteger[Any]], ...] = (np.int8, np.int16, np.int32)


def _narrowest_int(lo: int, hi: int) -> type[np.signedinteger[Any]]:
    """The narrowest signed integer type holding ``[lo, hi]``."""
    for dtype in _NARROW_INTS:
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return dtype
    return np.int64


def group_runs(dests: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Group record indices by destination, ascending by destination.

    Index arrays preserve original batch order (stable sort), which is
    what keeps the shuffle send order — and hence the on-disk log
    bytes — identical between backends.  Destinations are sorted in
    the narrowest signed dtype that holds them, so a shuffle's
    ``[OOB_DEST, nparts)`` sorts as ``int8`` or ``int16``, for which
    NumPy's stable sort is a radix sort.
    """
    dests = np.asarray(dests)
    n = len(dests)
    if n == 0:
        return []
    narrow = dests.astype(_narrowest_int(int(dests.min()), int(dests.max())))
    order = np.argsort(narrow, kind="stable")
    ordered = narrow[order]
    cuts = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), n]
    return [
        (int(ordered[lo]), order[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


def encode_keys(keys: np.ndarray) -> bytes:
    """Bulk key serialization: one contiguous little-endian f32 dump."""
    return np.ascontiguousarray(keys, dtype=KEY_DTYPE).tobytes()


def decode_keys(payload: bytes | bytearray | memoryview) -> np.ndarray:
    """Bulk key parse: zero-copy ``frombuffer`` view, then one copy.

    The copy detaches the result from ``payload`` so callers may hand
    in short-lived mmap slices.
    """
    return np.frombuffer(payload, dtype=KEY_DTYPE).copy()


def make_filler(rids: np.ndarray, filler_size: int) -> np.ndarray:
    """Deterministic per-record filler bytes, shape ``(n, filler_size)``.

    Byte ``j`` of record ``i`` is ``(rid_i + j) mod 256`` — cheap to
    generate vectorized, and verifiable on read.
    """
    rids = np.asarray(rids, dtype=np.uint64)
    if filler_size == 0:
        return np.empty((len(rids), 0), dtype=np.uint8)
    base = (rids & np.uint64(0xFF)).astype(np.uint8)
    offs = np.arange(filler_size, dtype=np.uint8)
    return base[:, None] + offs[None, :]


_FILLER_TEMPLATES: dict[int, np.ndarray] = {}


def _filler_template(value_size: int) -> np.ndarray:
    """Read-only value rows for every ``rid & 0xFF``, cached per ``value_size``.

    Row ``r`` is a zeroed rid slot followed by the filler of every rid
    whose low byte is ``r`` (filler depends on nothing else).  Rows are
    ``uint64`` words when ``value_size`` is a multiple of 8, else one
    ``void`` item each, so :func:`encode_values` gathers whole rows with
    one ``take``.  Concurrent first calls build equal templates, so the
    unlocked cache is safe.
    """
    template = _FILLER_TEMPLATES.get(value_size)
    if template is None:
        rows = np.zeros((256, value_size), dtype=np.uint8)
        rows[:, RID_DTYPE.itemsize :] = make_filler(
            np.arange(256, dtype=np.uint64), value_size - RID_DTYPE.itemsize
        )
        if value_size % RID_DTYPE.itemsize == 0:
            template = rows.view(RID_DTYPE)
        else:
            template = rows.view(np.dtype((np.void, value_size))).reshape(256)
        template.flags.writeable = False
        _FILLER_TEMPLATES[value_size] = template
    return template


def encode_values(rids: np.ndarray, value_size: int) -> memoryview:
    """Bulk value serialization: template rows gathered by the rids' low bytes.

    Returns a flat byte view of the encoded array — no ``tobytes`` copy.
    """
    rids = np.ascontiguousarray(rids, dtype=RID_DTYPE)
    n = len(rids)
    # the low byte of each little-endian rid picks its filler row
    out = _filler_template(value_size).take(rids.view(np.uint8)[::8], axis=0)
    if value_size % RID_DTYPE.itemsize == 0:
        out[:, 0] = rids
    else:
        out.view(np.uint8).reshape(n, value_size)[:, : RID_DTYPE.itemsize] = (
            rids.view(np.uint8).reshape(n, RID_DTYPE.itemsize)
        )
    return memoryview(out.view(np.uint8).reshape(-1))


def decode_values(
    payload: bytes | bytearray | memoryview, value_size: int
) -> np.ndarray:
    """Bulk value parse: copy the rid column through one strided view."""
    n = len(payload) // value_size
    rids = np.ndarray(
        (n,), dtype=RID_DTYPE, buffer=payload, strides=(value_size,)
    )
    return rids.copy()


def filler_matches(
    payload: bytes | bytearray | memoryview, rids: np.ndarray, value_size: int
) -> bool:
    """Verify filler bytes against their rids, whole block at once."""
    filler_size = value_size - RID_DTYPE.itemsize
    if filler_size == 0:
        return True
    n = len(payload) // value_size
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(n, value_size)
    return bool(
        np.array_equal(raw[:, RID_DTYPE.itemsize :], make_filler(rids, filler_size))
    )


VECTOR_KERNELS = Kernels(
    name="vector",
    route=route,
    range_mask=range_mask,
    interval_mask=interval_mask,
    group_runs=group_runs,
    encode_keys=encode_keys,
    decode_keys=decode_keys,
    encode_values=encode_values,
    decode_values=decode_values,
    filler_matches=filler_matches,
)

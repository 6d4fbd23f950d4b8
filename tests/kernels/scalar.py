"""Scalar kernels — the per-record oracle for the production kernels.

Every slot is written as the straightest possible Python loop over one
record at a time: ``bisect`` per key for routing, ``float`` compares
for masks, ``struct`` per record for the block codecs.  Nothing here
is meant to be fast; it is meant to be *obviously correct* and easy to
audit, so the vectorized backend (:mod:`repro.kernels.vector`) can be
proven observationally equivalent by differential testing rather than
by inspection.

Bit-exactness notes
-------------------
* Keys are widened float32→float64 per element (exact), so boundary
  comparisons agree with the vector path's float64 compares.
* Key bytes are serialized through their raw uint32 bit patterns, not
  through ``struct.pack("<f", ...)`` — a float64 round trip would
  canonicalize non-standard NaN payloads, and the contract is
  *bit*-identity even for keys the pipeline itself never produces.
* ``bisect_right``, the vector router's count of bounds above a key,
  and ``np.searchsorted(..., side="right")`` agree on every input
  including NaN (all compare ``key < bound``, which is always False
  for NaN, pushing NaN past the last bound) — pinned by the edge-case
  corpus and the property tests in tests/kernels/.

:func:`use_backend` runs a scope with ``repro.kernels.active_kernels()``
returning the named table, so the differential suites drive the whole
pipeline — ingest, logs, queries — on this oracle and on the
production table, and compare the results.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

import repro.kernels
from repro.kernels import OOB_DEST, VECTOR_KERNELS, Kernels

KEY_DTYPE = np.dtype("<f4")
RID_DTYPE = np.dtype("<u8")


def route(bounds: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Reference partition lookup: one ``bisect`` per key."""
    bounds_list = [float(b) for b in bounds]
    lo_bound = bounds_list[0]
    hi_bound = bounds_list[-1]
    nparts = len(bounds_list) - 1
    out = np.empty(len(keys), dtype=np.int64)
    for i in range(len(keys)):
        k = float(keys[i])
        dest = bisect_right(bounds_list, k) - 1
        if k == hi_bound:
            dest = nparts - 1
        if k < lo_bound or k > hi_bound:
            dest = OOB_DEST
        out[i] = dest
    return out


def range_mask(keys: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Reference closed-range filter: one float64 compare per key."""
    lo = float(lo)
    hi = float(hi)
    out = np.empty(len(keys), dtype=bool)
    for i in range(len(keys)):
        k = float(keys[i])
        out[i] = lo <= k <= hi
    return out


def interval_mask(
    keys: np.ndarray, lo: float, hi: float, inclusive_hi: bool
) -> np.ndarray:
    """Reference owned-range test: one compare pair per key."""
    lo = float(lo)
    hi = float(hi)
    out = np.empty(len(keys), dtype=bool)
    for i in range(len(keys)):
        k = float(keys[i])
        out[i] = (lo <= k <= hi) if inclusive_hi else (lo <= k < hi)
    return out


def group_runs(dests: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Reference grouping: append each index to its destination bucket.

    Buckets are emitted in ascending destination order; appending in
    batch order preserves original record order within a bucket — the
    same (dest, order) structure the stable-argsort vector kernel
    yields.
    """
    buckets: dict[int, list[int]] = {}
    for i in range(len(dests)):
        buckets.setdefault(int(dests[i]), []).append(i)
    return [
        (dest, np.asarray(buckets[dest], dtype=np.int64))
        for dest in sorted(buckets)
    ]


def encode_keys(keys: np.ndarray) -> bytes:
    """Reference key serialization: 4 bytes per key via its bit pattern."""
    bits = np.ascontiguousarray(keys, dtype=KEY_DTYPE).view("<u4")
    out = bytearray()
    for i in range(len(bits)):
        out += struct.pack("<I", int(bits[i]))
    return bytes(out)


def decode_keys(payload: bytes | bytearray | memoryview) -> np.ndarray:
    """Reference key parse: one 4-byte unpack per key, bits preserved."""
    n = len(payload) // KEY_DTYPE.itemsize
    bits = np.empty(n, dtype="<u4")
    for i in range(n):
        bits[i] = struct.unpack_from("<I", payload, i * KEY_DTYPE.itemsize)[0]
    return bits.view(KEY_DTYPE)


def encode_values(rids: np.ndarray, value_size: int) -> bytes:
    """Reference value serialization: rid + filler bytes, per record."""
    filler_size = value_size - RID_DTYPE.itemsize
    out = bytearray()
    for i in range(len(rids)):
        rid = int(rids[i])
        out += struct.pack("<Q", rid)
        for j in range(filler_size):
            out.append((rid + j) & 0xFF)
    return bytes(out)


def decode_values(
    payload: bytes | bytearray | memoryview, value_size: int
) -> np.ndarray:
    """Reference value parse: one 8-byte unpack per record."""
    n = len(payload) // value_size
    rids = np.empty(n, dtype=RID_DTYPE)
    for i in range(n):
        rids[i] = struct.unpack_from("<Q", payload, i * value_size)[0]
    return rids


def filler_matches(
    payload: bytes | bytearray | memoryview, rids: np.ndarray, value_size: int
) -> bool:
    """Reference filler verification: byte-by-byte per record."""
    filler_size = value_size - RID_DTYPE.itemsize
    if filler_size == 0:
        return True
    view = memoryview(payload)
    for i in range(len(rids)):
        rid = int(rids[i])
        base = i * value_size + RID_DTYPE.itemsize
        for j in range(filler_size):
            if view[base + j] != (rid + j) & 0xFF:
                return False
    return True


SCALAR_KERNELS = Kernels(
    name="scalar",
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

#: Both tables by the name the differential suites parametrize on.
BACKENDS: dict[str, Kernels] = {"scalar": SCALAR_KERNELS, "vector": VECTOR_KERNELS}


@contextmanager
def use_backend(name: str) -> Iterator[Kernels]:
    """Dispatch every ``active_kernels()`` call to ``BACKENDS[name]`` for a scope.

    Switch between workloads only, never while an ingest or query is
    in flight.
    """
    previous = repro.kernels._ACTIVE
    repro.kernels._ACTIVE = BACKENDS[name]
    try:
        yield repro.kernels._ACTIVE
    finally:
        repro.kernels._ACTIVE = previous

"""Key and value block encoding for KoiDB SSTables.

KoiDB serializes the keys and values of an SSTable into separate
sub-blocks (paper Fig. 6) so that query clients can fetch and parse key
blocks alone when deciding which records match.  Both blocks are cut
into the same :data:`CHUNK_RECORDS`-record chunks, and integrity is per
chunk: the SST's *chunk index* holds, for every chunk, a zone (the
chunk's min and max key) and a (key CRC, value CRC) pair, and ends in a
CRC32 of its own.  A reader that needs rows ``[a, b)`` verifies and
decodes only the key and value chunks covering them — integrity follows
the slice — while a full read verifies every chunk.

Values are deterministic functions of the record id: the rid itself
(8 bytes, little-endian) followed by filler bytes derived from the rid.
This keeps batches cheap in memory while producing real, verifiable
bytes on disk of the paper's record geometry (4-byte key + 56-byte
payload).

The payload transforms (keys↔bytes, rids↔bytes, filler verification)
dispatch through :func:`~repro.kernels.active_kernels`; the CRCs and
the structural checks stay here, so the kernels and their per-record
test oracle produce and accept exactly the same on-disk bytes.  Decoders accept any buffer —
``bytes`` from a file read or a zero-copy ``memoryview`` slice of an
mmap-backed log — and return arrays detached from the input buffer;
the two exceptions, :func:`key_chunks_view` and
:func:`value_chunks_rids`, say so in their docstrings.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence

import numpy as np

from repro.core.records import KEY_DTYPE, RID_DTYPE
from repro.kernels import active_kernels
from repro.kernels.vector import make_filler

__all__ = [
    "CRC_BYTES",
    "CHUNK_RECORDS",
    "BlockCorruptionError",
    "chunk_count",
    "chunk_index_size",
    "key_block_size",
    "value_block_size",
    "zone_map",
    "encode_key_block",
    "decode_key_block",
    "key_chunks_view",
    "make_filler",
    "encode_chunk_index",
    "decode_chunk_index",
    "encode_value_block",
    "value_chunks_rids",
    "decode_value_block",
]

CRC_BYTES = 4

#: Records per chunk — the unit of key- and value-side integrity, and
#: of zone-map pruning.  A format constant (written in the SST header
#: so a reader can refuse a file built with another), not a tunable.
CHUNK_RECORDS = 256

_CRC_DTYPE = np.dtype("<u4")

#: Bytes per chunk in the chunk index: a zone (min and max key) and a
#: (key CRC, value CRC) pair.
_ZONE_BYTES = 2 * KEY_DTYPE.itemsize
_PAIR_BYTES = 2 * CRC_BYTES

_Buffer = bytes | bytearray | memoryview


class BlockCorruptionError(Exception):
    """A block failed its CRC or structural checks."""


def _crc(payload: _Buffer) -> bytes:
    return (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(CRC_BYTES, "little")


def _check_crc(data: _Buffer, what: str) -> _Buffer:
    if len(data) < CRC_BYTES:
        raise BlockCorruptionError(f"{what}: too short to hold a CRC")
    payload = data[:-CRC_BYTES]
    if zlib.crc32(payload) != int.from_bytes(data[-CRC_BYTES:], "little"):
        raise BlockCorruptionError(f"{what}: CRC mismatch")
    return payload


def chunk_count(count: int) -> int:
    """Chunks an SST of ``count`` records has (the last may be short)."""
    return -(-count // CHUNK_RECORDS)


def chunk_index_size(count: int) -> int:
    """On-disk size of the chunk index: zone map, chunk table, CRC."""
    return chunk_count(count) * (_ZONE_BYTES + _PAIR_BYTES) + CRC_BYTES


def key_block_size(count: int) -> int:
    """On-disk size of a key block holding ``count`` keys."""
    return count * KEY_DTYPE.itemsize


def value_block_size(count: int, value_size: int) -> int:
    """On-disk size of a value block holding ``count`` values."""
    return count * value_size


def zone_map(keys: np.ndarray) -> np.ndarray:
    """The (min, max) key of every chunk of ``keys``, shape ``(C, 2)``."""
    keys = np.asarray(keys, dtype=KEY_DTYPE)
    if not len(keys):
        return np.empty((0, 2), dtype=KEY_DTYPE)
    starts = np.arange(0, len(keys), CHUNK_RECORDS)
    return np.stack(
        [np.minimum.reduceat(keys, starts), np.maximum.reduceat(keys, starts)],
        axis=1,
    )


def _chunk_crcs(payload: _Buffer, item_size: int) -> np.ndarray:
    """CRC32 of every ``CHUNK_RECORDS``-item slice of a payload."""
    view = memoryview(payload)
    step = CHUNK_RECORDS * item_size
    return np.array(
        [zlib.crc32(view[i : i + step]) for i in range(0, len(view), step)],
        dtype=_CRC_DTYPE,
    )


def _verify_chunks(
    payload: _Buffer, crcs: Sequence[int], item_size: int, what: str, first: int = 0
) -> None:
    """CRC-check consecutive whole chunks against their table entries.

    ``first`` is the index of the payload's first chunk in its SST, so
    an error names the chunk as the SST numbers it.
    """
    if item_size <= 0 or len(payload) % item_size:
        raise BlockCorruptionError(f"{what} payload not a multiple of {what} size")
    if chunk_count(len(payload) // item_size) != len(crcs):
        raise BlockCorruptionError(f"{what} payload does not match its chunk table")
    view = memoryview(payload)
    step = CHUNK_RECORDS * item_size
    # every chunk's CRC in one pass, then one comparison with the table
    got = [zlib.crc32(view[i : i + step]) for i in range(0, len(view), step)]
    expect = list(crcs)
    if got != expect:
        bad = next(i for i, (g, e) in enumerate(zip(got, expect)) if g != e)
        raise BlockCorruptionError(f"{what} chunk {first + bad}: CRC mismatch")


def encode_key_block(keys: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Serialize keys as little-endian float32; return (payload, chunk CRCs)."""
    payload = active_kernels().encode_keys(np.asarray(keys))
    return payload, _chunk_crcs(payload, KEY_DTYPE.itemsize)


def _check_finite(keys: np.ndarray, first: int) -> np.ndarray:
    """``keys``, if all finite: no writer stores a NaN or infinite key,
    so a chunk holding one is corrupt even when its CRC matches."""
    finite = np.isfinite(keys)
    if not finite.all():
        bad = first + int(np.argmin(finite)) // CHUNK_RECORDS
        raise BlockCorruptionError(f"key chunk {bad}: non-finite key")
    return keys


def key_chunks_view(payload: _Buffer, crcs: Sequence[int], first: int = 0) -> np.ndarray:
    """Verify consecutive key chunks; return their keys as a view of ``payload``.

    Every chunk is CRC-checked and its keys checked finite.  Zero-copy,
    unlike :func:`decode_key_block`: the result keeps ``payload``
    exported, so a caller handed an mmap slice copies what it keeps and
    drops the view before the map is closed.
    """
    _verify_chunks(payload, crcs, KEY_DTYPE.itemsize, "key", first)
    return _check_finite(np.frombuffer(payload, dtype=KEY_DTYPE), first)


def decode_key_block(payload: _Buffer, crcs: list[int]) -> np.ndarray:
    """Parse a key block, verifying every chunk against ``crcs`` and
    that every key is finite."""
    _verify_chunks(payload, crcs, KEY_DTYPE.itemsize, "key")
    return _check_finite(active_kernels().decode_keys(payload), 0)


def encode_chunk_index(
    zones: np.ndarray, key_crcs: np.ndarray, value_crcs: np.ndarray
) -> bytes:
    """The chunk index: zone map, (key CRC, value CRC) table, trailing CRC."""
    table = np.stack([key_crcs, value_crcs], axis=1).astype(_CRC_DTYPE)
    body = np.asarray(zones, dtype=KEY_DTYPE).tobytes() + table.tobytes()
    return body + _crc(body)


def decode_chunk_index(data: _Buffer, count: int) -> tuple[np.ndarray, np.ndarray]:
    """CRC-verify a chunk index of ``count`` records; return (zones, CRC pairs).

    Both arrays have one row per chunk: ``zones[i]`` is chunk ``i``'s
    (min, max) key and ``crcs[i]`` its (key CRC, value CRC).
    """
    body = _check_crc(data, "chunk index")
    chunks = chunk_count(count)
    if len(body) != chunks * (_ZONE_BYTES + _PAIR_BYTES):
        raise BlockCorruptionError("chunk index does not match record count")
    # one copy of both tables; the zones are float32 bits
    words = np.frombuffer(body, dtype=_CRC_DTYPE).copy()
    zones = words[: 2 * chunks].view(KEY_DTYPE).reshape(chunks, 2)
    return zones, words[2 * chunks :].reshape(chunks, 2)


def encode_value_block(rids: np.ndarray, value_size: int) -> tuple[_Buffer, np.ndarray]:
    """Serialize values (per record rid 8 B LE + filler); return (payload, chunk CRCs).

    The payload is whatever buffer the kernel backend encoded into; a
    caller joins it into the bytes it writes, so the values are copied
    once.
    """
    if value_size - RID_DTYPE.itemsize < 0:
        raise ValueError(f"value_size {value_size} smaller than a rid")
    payload = active_kernels().encode_values(
        np.ascontiguousarray(rids, dtype=RID_DTYPE), value_size
    )
    return payload, _chunk_crcs(payload, value_size)


def value_chunks_rids(
    payload: _Buffer, crcs: Sequence[int], value_size: int, first: int = 0
) -> np.ndarray:
    """Verify consecutive value chunks; return their rids as a view of ``payload``.

    ``crcs`` are the chunks' entries of an already-verified chunk index,
    and every chunk is CRC-checked.  The twin of :func:`key_chunks_view`:
    zero-copy, a strided view of the rid column, so a caller handed an
    mmap slice copies what it keeps and drops the view before the map is
    closed.  ``first`` is the index of the payload's first chunk in its
    SST.
    """
    _verify_chunks(payload, crcs, value_size, "value", first)
    return np.ndarray(
        (len(payload) // value_size,), dtype=RID_DTYPE, buffer=payload,
        strides=(value_size,),
    )


def decode_value_block(
    payload: _Buffer, crcs: list[int], value_size: int, count: int,
    verify_filler: bool = False,
) -> np.ndarray:
    """Parse a value block of ``count`` records, verifying every chunk."""
    if value_size <= 0 or len(payload) != value_block_size(count, value_size):
        raise BlockCorruptionError("value block length does not match record count")
    _verify_chunks(payload, crcs, value_size, "value")
    kernels = active_kernels()
    rids = kernels.decode_values(payload, value_size)
    if verify_filler and not kernels.filler_matches(payload, rids, value_size):
        raise BlockCorruptionError("value block filler mismatch")
    return rids

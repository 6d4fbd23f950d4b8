"""Key and value block encoding for KoiDB SSTables.

KoiDB serializes the keys and values of an SSTable into separate
sub-blocks (paper Fig. 6) so that query clients can fetch and parse key
blocks alone when deciding which records match.  A key block carries a
trailing CRC32.  A value block *leads* with a table of one CRC32 per
:data:`CHUNK_RECORDS`-record chunk of its payload (the table has a
trailing CRC32 of its own), so a reader that needs rows ``[a, b)``
verifies and decodes only the chunks covering them — integrity follows
the slice — while a full read verifies every chunk.

Values are deterministic functions of the record id: the rid itself
(8 bytes, little-endian) followed by filler bytes derived from the rid.
This keeps batches cheap in memory while producing real, verifiable
bytes on disk of the paper's record geometry (4-byte key + 56-byte
payload).

The payload transforms (keys↔bytes, rids↔bytes, filler verification)
dispatch through the active kernel backend (``CARP_KERNELS``); the CRC
frame and the structural checks stay here so both backends produce and
accept exactly the same on-disk bytes.  Decoders accept any buffer —
``bytes`` from a file read or a zero-copy ``memoryview`` slice of an
mmap-backed log — and return arrays detached from the input buffer;
the one exception, :func:`key_block_view`, says so in its name.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.records import KEY_DTYPE, RID_DTYPE
from repro.kernels import active_kernels
from repro.kernels.vector import make_filler

__all__ = [
    "CRC_BYTES",
    "CHUNK_RECORDS",
    "BlockCorruptionError",
    "key_block_size",
    "chunk_count",
    "chunk_table_size",
    "value_block_size",
    "key_block_parts",
    "encode_key_block",
    "decode_key_block",
    "key_block_view",
    "make_filler",
    "encode_chunk_table",
    "decode_chunk_table",
    "value_block_parts",
    "encode_value_block",
    "decode_value_rows",
    "decode_value_block",
]

CRC_BYTES = 4

#: Records per value chunk — the unit of value-side integrity.  A format
#: constant (written in the SST header so a reader can refuse a file
#: built with another), not a tunable.
CHUNK_RECORDS = 256

_CRC_DTYPE = np.dtype("<u4")

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


def key_block_size(count: int) -> int:
    """On-disk size of a key block holding ``count`` keys."""
    return count * KEY_DTYPE.itemsize + CRC_BYTES


def chunk_count(count: int) -> int:
    """Value chunks an SST of ``count`` records has (the last may be short)."""
    return -(-count // CHUNK_RECORDS)


def chunk_table_size(count: int) -> int:
    """On-disk size of the chunk CRC table: one CRC per chunk + its own."""
    return (chunk_count(count) + 1) * CRC_BYTES


def value_block_size(count: int, value_size: int) -> int:
    """On-disk size of a value block holding ``count`` values."""
    return chunk_table_size(count) + count * value_size


def key_block_parts(keys: np.ndarray) -> tuple[bytes, bytes]:
    """A key block as its two pieces, (payload, CRC), left unjoined."""
    payload = active_kernels().encode_keys(np.asarray(keys))
    return payload, _crc(payload)


def encode_key_block(keys: np.ndarray) -> bytes:
    """Serialize keys as a little-endian float32 array + CRC."""
    return b"".join(key_block_parts(keys))


def decode_key_block(data: _Buffer) -> np.ndarray:
    """Parse and CRC-verify a key block."""
    return active_kernels().decode_keys(_key_payload(data))


def key_block_view(data: _Buffer) -> np.ndarray:
    """CRC-verify a key block; return its keys as a read-only view of ``data``.

    Zero-copy, unlike :func:`decode_key_block`: the result keeps
    ``data`` exported, so a caller handed an mmap slice copies what it
    keeps and drops the view before the map is closed.
    """
    return np.frombuffer(_key_payload(data), dtype=KEY_DTYPE)


def _key_payload(data: _Buffer) -> _Buffer:
    payload = _check_crc(data, "key block")
    if len(payload) % KEY_DTYPE.itemsize:
        raise BlockCorruptionError("key block payload not a multiple of key size")
    return payload


def _chunk_crcs(payload: _Buffer, value_size: int) -> np.ndarray:
    """CRC32 of every ``CHUNK_RECORDS``-record slice of a value payload."""
    view = memoryview(payload)
    step = CHUNK_RECORDS * value_size
    return np.array(
        [zlib.crc32(view[i : i + step]) for i in range(0, len(view), step)],
        dtype=_CRC_DTYPE,
    )


def encode_chunk_table(payload: _Buffer, value_size: int) -> bytes:
    """The chunk CRC table of a value payload, with its trailing CRC."""
    table = _chunk_crcs(payload, value_size).tobytes()
    return table + _crc(table)


def decode_chunk_table(data: _Buffer, count: int) -> list[int]:
    """CRC-verify a chunk table; return the per-chunk CRCs of ``count`` records."""
    table = _check_crc(data, "chunk CRC table")
    if len(table) != chunk_count(count) * CRC_BYTES:
        raise BlockCorruptionError("chunk CRC table does not match record count")
    return np.frombuffer(table, dtype=_CRC_DTYPE).tolist()


def value_block_parts(rids: np.ndarray, value_size: int) -> tuple[bytes, _Buffer]:
    """A value block as its two pieces, (chunk CRC table, payload), left unjoined.

    The payload is whatever buffer the kernel backend encoded into; a
    caller joins the pieces into the bytes it writes, so the values
    are copied once.
    """
    if value_size - RID_DTYPE.itemsize < 0:
        raise ValueError(f"value_size {value_size} smaller than a rid")
    payload = active_kernels().encode_values(
        np.ascontiguousarray(rids, dtype=RID_DTYPE), value_size
    )
    return encode_chunk_table(payload, value_size), payload


def encode_value_block(rids: np.ndarray, value_size: int) -> bytes:
    """Serialize values: chunk CRC table, then per record rid (8 B LE) + filler."""
    return b"".join(value_block_parts(rids, value_size))


def _verify_chunks(payload: _Buffer, crcs: list[int], value_size: int) -> None:
    """CRC-check consecutive whole value chunks against their table entries."""
    if value_size <= 0 or len(payload) % value_size:
        raise BlockCorruptionError("value payload not a multiple of value size")
    if chunk_count(len(payload) // value_size) != len(crcs):
        raise BlockCorruptionError("value payload does not match its chunk table")
    view = memoryview(payload)
    step = CHUNK_RECORDS * value_size
    for i, expect in enumerate(crcs):
        if zlib.crc32(view[i * step : (i + 1) * step]) != expect:
            raise BlockCorruptionError(f"value chunk {i}: CRC mismatch")


def decode_value_rows(
    payload: _Buffer, crcs: list[int], value_size: int, start: int, stop: int
) -> np.ndarray:
    """Verify consecutive whole value chunks; decode the rids of rows ``[start, stop)``.

    ``payload`` is the value bytes of the chunks and ``crcs`` their
    entries of an already-verified chunk table; every chunk handed in
    is CRC-checked, so every rid returned was verified.  Rows count
    from the start of ``payload``.
    """
    _verify_chunks(payload, crcs, value_size)
    rows = memoryview(payload)[start * value_size : stop * value_size]
    return active_kernels().decode_values(rows, value_size)


def decode_value_block(
    data: _Buffer, value_size: int, count: int, verify_filler: bool = False
) -> np.ndarray:
    """Parse a value block of ``count`` records, verifying every chunk."""
    if value_size <= 0 or len(data) != value_block_size(count, value_size):
        raise BlockCorruptionError("value block length does not match record count")
    table_len = chunk_table_size(count)
    crcs = decode_chunk_table(data[:table_len], count)
    payload = data[table_len:]
    _verify_chunks(payload, crcs, value_size)
    kernels = active_kernels()
    rids = kernels.decode_values(payload, value_size)
    if verify_filler and not kernels.filler_matches(payload, rids, value_size):
        raise BlockCorruptionError("value block filler mismatch")
    return rids

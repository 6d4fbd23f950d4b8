"""SSTable serialization: KoiDB's immutable on-disk unit.

An SSTable (paper Fig. 6) is a header followed by a key block and a
value block.  The header records the key range, the epoch, flags
(sorted / stray) and a subpartition id, and is protected by its own
CRC.  SSTables are append-only: once written to a log they are never
modified.

Format v2 — the value block leads with its chunk CRC table, so the
*head* (everything a reader needs to decide which values to fetch, and
to verify them once fetched) is one contiguous span::

    | header 64 B | keys 4 B x n | CRC | chunk CRCs 4 B x ceil(n/256) | CRC | values value_size x n |
    |<--------- keys span -------->|
    |<------------------------------ head span ----------------------------->|
                                   |<---------------------- value block -------------------------->|
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.core.records import RecordBatch, range_mask, sorted_range
from repro.storage.blocks import (
    CHUNK_RECORDS,
    BlockCorruptionError,
    chunk_table_size,
    decode_chunk_table,
    decode_key_block,
    decode_value_block,
    key_block_parts,
    key_block_size,
    key_block_view,
    value_block_parts,
)

_Buffer = bytes | bytearray | memoryview

SST_MAGIC = b"KSST"
SST_FORMAT_VERSION = 2

#: Header layout: magic, format version, flags, epoch, sub_id, count,
#: kmin, kmax, key block len, value block len, value size, records per
#: value chunk, header CRC.
_HEADER_FMT = "<4sHHIIQddQQHHI"
HEADER_SIZE = struct.calcsize(_HEADER_FMT)

#: SST flag bits.
FLAG_SORTED = 0x1
FLAG_STRAY = 0x2


class SSTableInfo(NamedTuple):
    """Parsed SSTable header (a tuple: cheap to build once per probe)."""

    flags: int
    epoch: int
    sub_id: int
    count: int
    kmin: float
    kmax: float
    key_block_len: int
    val_block_len: int
    value_size: int

    @property
    def is_sorted(self) -> bool:
        return bool(self.flags & FLAG_SORTED)

    @property
    def is_stray(self) -> bool:
        return bool(self.flags & FLAG_STRAY)

    @property
    def total_len(self) -> int:
        return HEADER_SIZE + self.key_block_len + self.val_block_len


def build_sstable(
    batch: RecordBatch,
    epoch: int,
    sort: bool = True,
    stray: bool = False,
    sub_id: int = 0,
) -> tuple[bytes, SSTableInfo]:
    """Compact a record batch into SSTable bytes (paper's *compaction*).

    Compaction optionally sorts the contents by key, then serializes
    keys and values into separate sub-blocks for efficient query-time
    parsing.  Header, key block, chunk CRC table and values are joined
    into the result in one copy.
    """
    if len(batch) == 0:
        raise ValueError("cannot build an empty SSTable")
    if batch.value_size > 0xFFFF:
        raise ValueError(f"value_size {batch.value_size} does not fit the header")
    if sort:
        batch = batch.sorted_by_key()
    flags = (FLAG_SORTED if sort else 0) | (FLAG_STRAY if stray else 0)
    key_payload, key_crc = key_block_parts(batch.keys)
    chunk_table, values = value_block_parts(batch.rids, batch.value_size)
    info = SSTableInfo(
        flags=flags,
        epoch=epoch,
        sub_id=sub_id,
        count=len(batch),
        kmin=float(batch.keys.min()),
        kmax=float(batch.keys.max()),
        key_block_len=len(key_payload) + len(key_crc),
        val_block_len=len(chunk_table) + len(values),
        value_size=batch.value_size,
    )
    header_wo_crc = struct.pack(
        _HEADER_FMT,
        SST_MAGIC,
        SST_FORMAT_VERSION,
        info.flags,
        info.epoch,
        info.sub_id,
        info.count,
        info.kmin,
        info.kmax,
        info.key_block_len,
        info.val_block_len,
        info.value_size,
        CHUNK_RECORDS,
        0,
    )[:-4]
    crc = zlib.crc32(header_wo_crc) & 0xFFFFFFFF
    header = header_wo_crc + crc.to_bytes(4, "little")
    return b"".join((header, key_payload, key_crc, chunk_table, values)), info


def parse_header(data: _Buffer) -> SSTableInfo:
    """Parse and CRC-verify an SSTable header.

    Accepts any buffer — including a zero-copy ``memoryview`` slice of
    an mmap-backed log reader; nothing retains the input.
    """
    if len(data) < HEADER_SIZE:
        raise BlockCorruptionError("truncated SSTable header")
    (magic, fmt, flags, epoch, sub_id, count, kmin, kmax, kb_len, vb_len,
     value_size, chunk_records, crc) = struct.unpack_from(_HEADER_FMT, data)
    if magic != SST_MAGIC:
        raise BlockCorruptionError(f"bad SSTable magic {magic!r}")
    if fmt != SST_FORMAT_VERSION:
        raise BlockCorruptionError(f"unsupported SSTable format version {fmt}")
    if crc != zlib.crc32(data[: HEADER_SIZE - 4]):
        raise BlockCorruptionError("SSTable header CRC mismatch")
    if chunk_records != CHUNK_RECORDS:
        raise BlockCorruptionError(
            f"unsupported value chunk size {chunk_records} records"
        )
    return SSTableInfo(flags, epoch, sub_id, count, kmin, kmax, kb_len, vb_len,
                       value_size)


def parse_sstable(data: _Buffer) -> tuple[SSTableInfo, RecordBatch]:
    """Parse a complete SSTable, verifying every block and value chunk.

    Accepts any buffer; the returned batch owns its arrays (the block
    decoders copy), so the input may be an mmap slice that is unmapped
    right after the call.
    """
    info, keys = parse_keys_only(data)
    if len(data) < info.total_len:
        raise BlockCorruptionError("truncated SSTable body")
    vb_start = HEADER_SIZE + info.key_block_len
    rids = decode_value_block(
        data[vb_start : vb_start + info.val_block_len], info.value_size, info.count
    )
    return info, RecordBatch(keys, rids, info.value_size)


def parse_keys_only(data: _Buffer) -> tuple[SSTableInfo, np.ndarray]:
    """Parse just the header and key block.

    Query clients use this to fetch key blocks first (paper §VII-A) and
    defer value-block reads until matches are known.
    """
    return _parse_keys(data, decode_key_block)


def _parse_keys(
    data: _Buffer, decode: Callable[[_Buffer], np.ndarray]
) -> tuple[SSTableInfo, np.ndarray]:
    info = parse_header(data)
    kb_start = HEADER_SIZE
    kb_end = kb_start + info.key_block_len
    if len(data) < kb_end:
        raise BlockCorruptionError("truncated SSTable key block")
    keys = decode(data[kb_start:kb_end])
    if len(keys) != info.count:
        raise BlockCorruptionError("SSTable count does not match key block")
    return info, keys


def keys_span_len(count: int) -> int:
    """Length of header + key block for an SST of ``count`` records."""
    return HEADER_SIZE + key_block_size(count)


def head_span_len(count: int) -> int:
    """Length of header + key block + chunk CRC table (the SST *head*)."""
    return keys_span_len(count) + chunk_table_size(count)


def value_chunks_span(info: SSTableInfo, first: int, stop: int) -> tuple[int, int]:
    """(offset, length), relative to the SST start, of value chunks ``[first, stop)``."""
    values_start = HEADER_SIZE + info.key_block_len + chunk_table_size(info.count)
    begin = first * CHUNK_RECORDS * info.value_size
    end = min(stop * CHUNK_RECORDS, info.count) * info.value_size
    return values_start + begin, end - begin


def parse_head(data: _Buffer) -> tuple[SSTableInfo, np.ndarray, list[int]]:
    """Parse header, key block and chunk CRC table — each CRC-verified.

    The keys are a zero-copy, read-only view of ``data``
    (:func:`~repro.storage.blocks.key_block_view`): a caller handed an
    mmap slice copies the rows it returns and drops the view before the
    map is closed.  The third result is what
    :func:`~repro.storage.blocks.decode_value_rows` checks fetched
    value chunks against.
    """
    info, keys = _parse_keys(data, key_block_view)
    table_start = HEADER_SIZE + info.key_block_len
    table_end = table_start + chunk_table_size(info.count)
    if len(data) < table_end:
        raise BlockCorruptionError("truncated SSTable chunk CRC table")
    return info, keys, decode_chunk_table(data[table_start:table_end], info.count)


def match_rows(
    info: SSTableInfo, keys: np.ndarray, lo: float, hi: float
) -> slice | np.ndarray:
    """Rows of an SST's ``keys`` in ``[lo, hi]``.

    A sorted SST (``FLAG_SORTED``) answers by binary search, as a
    slice; any other by range mask, as an index array.  Either selects
    exactly the rows ``np.flatnonzero(range_mask(keys, lo, hi))``.
    """
    if info.is_sorted:
        return sorted_range(keys, lo, hi)
    return np.flatnonzero(range_mask(keys, lo, hi))

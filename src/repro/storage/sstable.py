"""SSTable serialization: KoiDB's immutable on-disk unit.

An SSTable (paper Fig. 6) is a header followed by a key block and a
value block.  The header records the key range, the epoch, flags
(sorted / stray) and a subpartition id, and is protected by its own
CRC.  SSTables are append-only: once written to a log they are never
modified.

Format v3 — keys and values are cut into the same 256-record chunks,
and a *chunk index* between the header and the keys holds, per chunk,
its zone (min and max key; fence keys on a sorted SST) and its (key
CRC, value CRC) pair, then one CRC over both tables.  The *head* is
the header plus the chunk index: everything a reader needs to decide
which key chunks to search, and to verify whatever it fetches after::

    | header 64 B | zones 8 B x C | CRC pairs 8 B x C | CRC | keys 4 B x n | values value_size x n |
    |<--------------------- head span ------------------->|
    |<------------------------------- keys span ------------------------->|

with ``C = ceil(n / 256)``.  A log reader verifies each head once, when
it opens the log; a ranged read then searches only the key chunks
whose zone meets the range (each verified once per reader, on first
touch), and fetches only the value chunks of the rows that match.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

import numpy as np

from repro.core.records import KEY_DTYPE, RecordBatch
from repro.storage.blocks import (
    CHUNK_RECORDS,
    BlockCorruptionError,
    chunk_index_size,
    decode_chunk_index,
    decode_key_block,
    decode_value_block,
    encode_chunk_index,
    encode_key_block,
    encode_value_block,
    key_block_size,
    value_block_size,
    zone_map,
)

_Buffer = bytes | bytearray | memoryview

SST_MAGIC = b"KSST"
SST_FORMAT_VERSION = 3

#: Header layout: magic, format version, flags, epoch, sub_id, count,
#: kmin, kmax, key block len, value block len, value size, records per
#: chunk, header CRC.
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
        return keys_span_len(self.count) + self.val_block_len


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
    parsing.  Header, chunk index, keys and values are joined into the
    result in one copy.
    """
    if len(batch) == 0:
        raise ValueError("cannot build an empty SSTable")
    if batch.value_size > 0xFFFF:
        raise ValueError(f"value_size {batch.value_size} does not fit the header")
    if sort:
        batch = batch.sorted_by_key()
    flags = (FLAG_SORTED if sort else 0) | (FLAG_STRAY if stray else 0)
    zones = zone_map(batch.keys)
    keys, key_crcs = encode_key_block(batch.keys)
    values, value_crcs = encode_value_block(batch.rids, batch.value_size)
    info = SSTableInfo(
        flags=flags,
        epoch=epoch,
        sub_id=sub_id,
        count=len(batch),
        kmin=float(zones[:, 0].min()),
        kmax=float(zones[:, 1].max()),
        key_block_len=len(keys),
        val_block_len=len(values),
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
    index = encode_chunk_index(zones, key_crcs, value_crcs)
    return b"".join((header, index, keys, values)), info


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
            f"unsupported chunk size {chunk_records} records"
        )
    if (kb_len != key_block_size(count)
            or vb_len != value_block_size(count, value_size)):
        raise BlockCorruptionError("SSTable block lengths do not match its count")
    return SSTableInfo(flags, epoch, sub_id, count, kmin, kmax, kb_len, vb_len,
                       value_size)


def head_span_len(count: int) -> int:
    """Length of header + chunk index (the SST *head*)."""
    return HEADER_SIZE + chunk_index_size(count)


def keys_span_len(count: int) -> int:
    """Length of the head + key block: what a keys-only full read fetches."""
    return head_span_len(count) + key_block_size(count)


def key_chunks_span(count: int, first: int, stop: int) -> tuple[int, int]:
    """(offset, length), relative to the SST start, of key chunks ``[first, stop)``."""
    return chunks_span(
        head_span_len(count), KEY_DTYPE.itemsize, count, first, stop
    )


def chunks_span(
    base: int, item_size: int, count: int, first: int, stop: int
) -> tuple[int, int]:
    """(offset, length) of chunks ``[first, stop)`` of a column of ``count``
    items of ``item_size`` bytes that starts at ``base``."""
    begin = first * CHUNK_RECORDS * item_size
    end = min(stop * CHUNK_RECORDS, count) * item_size
    return base + begin, end - begin


def parse_head(data: _Buffer) -> tuple[SSTableInfo, np.ndarray, np.ndarray]:
    """Parse header and chunk index — each CRC-verified.

    Returns the header, the zone map (one (min, max) row per chunk) and
    the chunk table (one (key CRC, value CRC) row per chunk): what
    a ranged read prunes with and what the key and value chunks
    fetched after are checked against.
    """
    info = parse_header(data)
    end = head_span_len(info.count)
    if len(data) < end:
        raise BlockCorruptionError("truncated SSTable chunk index")
    zones, crcs = decode_chunk_index(data[HEADER_SIZE:end], info.count)
    return info, zones, crcs


def parse_sstable(data: _Buffer) -> tuple[SSTableInfo, RecordBatch]:
    """Parse a complete SSTable, verifying every chunk and every zone.

    Accepts any buffer; the returned batch owns its arrays (the block
    decoders copy), so the input may be an mmap slice that is unmapped
    right after the call.
    """
    info, keys, zones, crcs = _parse_keys(data)
    if len(data) < info.total_len:
        raise BlockCorruptionError("truncated SSTable body")
    bad = np.flatnonzero(np.any(zone_map(keys) != zones, axis=1))
    if len(bad):
        raise BlockCorruptionError(
            f"chunk {int(bad[0])}: zone does not match its keys"
        )
    values = data[keys_span_len(info.count) : info.total_len]
    rids = decode_value_block(
        values, crcs[:, 1].tolist(), info.value_size, info.count
    )
    return info, RecordBatch(keys, rids, info.value_size)


def parse_keys_only(data: _Buffer) -> tuple[SSTableInfo, np.ndarray]:
    """Parse just the head and the whole key block, verifying every key chunk.

    Query clients use this to fetch key blocks first (paper §VII-A) and
    defer value-block reads until matches are known.
    """
    info, keys, _zones, _crcs = _parse_keys(data)
    return info, keys


def _parse_keys(
    data: _Buffer,
) -> tuple[SSTableInfo, np.ndarray, np.ndarray, np.ndarray]:
    info, zones, crcs = parse_head(data)
    start = head_span_len(info.count)
    end = keys_span_len(info.count)
    if len(data) < end:
        raise BlockCorruptionError("truncated SSTable key block")
    keys = decode_key_block(data[start:end], crcs[:, 0].tolist())
    return info, keys, zones, crcs

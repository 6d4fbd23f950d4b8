"""Columnar storage interop (paper §VIII, "Storage Formats").

The paper argues CARP-partitioned output "can be directly written to
columnar formats like Parquet", where per-rowgroup min/max statistics
then prune I/O for range queries — and that the pruning is only as
good as the partitioning feeding it.

This module implements a minimal Parquet-like format: files composed of
*rowgroups*, each storing its key and rid columns separately with
min/max statistics in a footer index.  A reader answers range queries
by consulting the statistics and reading only candidate rowgroups.
The accompanying benchmark shows CARP-partitioned rowgroups prune
1-2 orders of magnitude more data than arrival-order rowgroups —
the §VIII claim, made measurable.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.records import KEY_DTYPE, RID_DTYPE, RecordBatch, range_mask

COLUMNAR_MAGIC = b"KCOL"
_FOOTER_TAIL_FMT = "<4sQI"  # magic, footer offset, crc
_FOOTER_TAIL_SIZE = struct.calcsize(_FOOTER_TAIL_FMT)
_RG_ENTRY_FMT = "<QQQdd"  # offset, nbytes, count, kmin, kmax
_RG_ENTRY_SIZE = struct.calcsize(_RG_ENTRY_FMT)


class ColumnarFormatError(Exception):
    """Malformed columnar file."""


@dataclass(frozen=True)
class RowGroupStat:
    """Footer statistics for one rowgroup."""

    offset: int
    nbytes: int
    count: int
    kmin: float
    kmax: float

    def overlaps(self, lo: float, hi: float) -> bool:
        return self.kmin <= hi and self.kmax >= lo


def write_columnar(
    path: Path | str, batches: list[RecordBatch], rowgroup_records: int = 4096
) -> list[RowGroupStat]:
    """Write record batches as a columnar file with rowgroup stats.

    Batches are concatenated and cut into rowgroups of
    ``rowgroup_records`` in the order given — pass CARP-partitioned
    batches to get tight per-rowgroup key ranges, or arrival-order
    batches to see the pruning collapse.
    """
    if rowgroup_records < 1:
        raise ValueError("rowgroup_records must be >= 1")
    data = RecordBatch.concat(batches)
    if len(data) == 0:
        raise ValueError("nothing to write")
    stats: list[RowGroupStat] = []
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        offset = 0
        for start in range(0, len(data), rowgroup_records):
            chunk = data.select(slice(start, start + rowgroup_records))
            key_bytes = np.ascontiguousarray(chunk.keys, KEY_DTYPE).tobytes()
            rid_bytes = np.ascontiguousarray(chunk.rids, RID_DTYPE).tobytes()
            blob = key_bytes + rid_bytes
            fh.write(blob)
            stats.append(
                RowGroupStat(
                    offset=offset,
                    nbytes=len(blob),
                    count=len(chunk),
                    kmin=float(chunk.keys.min()),
                    kmax=float(chunk.keys.max()),
                )
            )
            offset += len(blob)
        footer = b"".join(
            struct.pack(_RG_ENTRY_FMT, s.offset, s.nbytes, s.count, s.kmin, s.kmax)
            for s in stats
        )
        footer_offset = offset
        fh.write(footer)
        tail_body = struct.pack("<4sQ", COLUMNAR_MAGIC, footer_offset)
        crc = zlib.crc32(tail_body) & 0xFFFFFFFF
        fh.write(tail_body + crc.to_bytes(4, "little"))
    return stats


class ColumnarReader:
    """Range queries over a columnar file via rowgroup-stat pruning."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        self._stats = self._load_footer()
        self.bytes_read = 0
        self.rowgroups_read = 0

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "ColumnarReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _load_footer(self) -> list[RowGroupStat]:
        self._fh.seek(0, 2)
        size = self._fh.tell()
        if size < _FOOTER_TAIL_SIZE:
            raise ColumnarFormatError("file too small")
        self._fh.seek(size - _FOOTER_TAIL_SIZE)
        tail = self._fh.read(_FOOTER_TAIL_SIZE)
        magic, footer_offset = struct.unpack("<4sQ", tail[:-4])
        if magic != COLUMNAR_MAGIC:
            raise ColumnarFormatError(f"bad magic {magic!r}")
        if (zlib.crc32(tail[:-4]) & 0xFFFFFFFF).to_bytes(4, "little") != tail[-4:]:
            raise ColumnarFormatError("footer CRC mismatch")
        footer_len = size - _FOOTER_TAIL_SIZE - footer_offset
        if footer_len < 0 or footer_len % _RG_ENTRY_SIZE:
            raise ColumnarFormatError("bad footer geometry")
        self._fh.seek(footer_offset)
        raw = self._fh.read(footer_len)
        return [
            RowGroupStat(*struct.unpack(
                _RG_ENTRY_FMT, raw[i : i + _RG_ENTRY_SIZE]
            ))
            for i in range(0, footer_len, _RG_ENTRY_SIZE)
        ]

    @property
    def rowgroups(self) -> list[RowGroupStat]:
        return self._stats

    @property
    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self._stats)

    def query(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Return (keys, rids) with keys in ``[lo, hi]``, sorted by key.

        Only rowgroups whose statistics overlap the range are read;
        :attr:`bytes_read` accumulates the pruned I/O volume.
        """
        if hi < lo:
            raise ValueError(f"empty query range [{lo}, {hi}]")
        keys_out: list[np.ndarray] = []
        rids_out: list[np.ndarray] = []
        for s in self._stats:
            if not s.overlaps(lo, hi):
                continue
            self._fh.seek(s.offset)
            blob = self._fh.read(s.nbytes)
            self.bytes_read += s.nbytes
            self.rowgroups_read += 1
            ks = np.frombuffer(blob[: 4 * s.count], dtype=KEY_DTYPE)
            rs = np.frombuffer(blob[4 * s.count :], dtype=RID_DTYPE)
            mask = range_mask(ks, lo, hi)
            keys_out.append(ks[mask])
            rids_out.append(rs[mask])
        if not keys_out:
            return np.empty(0, KEY_DTYPE), np.empty(0, RID_DTYPE)
        keys = np.concatenate(keys_out)
        rids = np.concatenate(rids_out)
        order = np.argsort(keys, kind="stable")
        return keys[order], rids[order]

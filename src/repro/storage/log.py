"""Per-rank append-only logs (``RDB-XXXXXXXX.tbl``).

Each KoiDB instance writes one log file to shared storage.  The file is
a pure append-only sequence of SSTables interleaved with per-epoch
manifest blocks and footers; the newest footer (at end-of-file) locates
the newest manifest block, and manifest blocks chain backwards so all
epochs remain reachable.

The query client opens logs read-only, which is what lets multiple
concurrent query clients coexist (paper §V-D).
"""

from __future__ import annotations

import mmap
import os
import warnings
from array import array
from collections.abc import Iterator
from pathlib import Path
from typing import BinaryIO, NamedTuple

import numpy as np

from repro.core.records import KEY_DTYPE, RID_DTYPE, RecordBatch
from repro.faults.plan import (
    ACTION_CRASH,
    SITE_MANIFEST_WRITE,
    SITE_SST_WRITE,
    FaultInjector,
    InjectedCrashError,
)
from repro.storage.blocks import (
    CHUNK_RECORDS,
    BlockCorruptionError,
    chunk_count,
    key_chunks_view,
    value_chunks_rids,
)
from repro.storage.manifest import (
    FOOTER_SIZE,
    ManifestCorruptionError,
    ManifestEntry,
    ManifestError,
    decode_footer,
    encode_footer,
    encode_manifest_block,
)
from repro.storage.recovery import (
    CommittedState,
    RepairAction,
    classify_log,
    repair_log,
    walk_manifest_chain,
)
from repro.storage.sstable import (
    FLAG_SORTED,
    SSTableInfo,
    build_sstable,
    head_span_len,
    key_chunks_span,
    keys_span_len,
    match_rows,
    parse_head,
    parse_keys_only,
    parse_sstable,
    value_chunks_span,
    zone_chunks,
)

LOG_PREFIX = "RDB-"
LOG_SUFFIX = ".tbl"

#: The keys a ranged read searches when no chunk's zone meets its range.
_NO_KEYS = np.empty(0, dtype=KEY_DTYPE)
_NO_KEYS.flags.writeable = False


def _read_only(items: np.ndarray) -> np.ndarray:
    """``items``, marked read-only: a ranged read's arrays may view a column."""
    items.flags.writeable = False
    return items


def log_name(rank: int) -> str:
    return f"{LOG_PREFIX}{rank:08d}{LOG_SUFFIX}"


def log_rank(path: Path | str) -> int:
    """Recover the writing rank from a log file name."""
    name = Path(path).name
    if not (name.startswith(LOG_PREFIX) and name.endswith(LOG_SUFFIX)):
        raise ValueError(f"not a KoiDB log name: {name}")
    return int(name[len(LOG_PREFIX) : -len(LOG_SUFFIX)])


def list_logs(directory: Path | str) -> list[Path]:
    """All KoiDB logs in a directory, ordered by rank."""
    directory = Path(directory)
    logs = sorted(directory.glob(f"{LOG_PREFIX}*{LOG_SUFFIX}"), key=log_rank)
    return logs


#: Subdirectory (next to the logs) where recovery quarantines damage.
QUARANTINE_DIR = "quarantine"


class LogWriter:
    """Appends SSTables and per-epoch manifests to one log file.

    ``recover=True`` re-opens an existing log for appending instead of
    truncating it: the file is first repaired (torn tail quarantined,
    see :mod:`repro.storage.recovery`), then opened at its commit
    point with the manifest chain re-linked, so new epochs append onto
    the surviving committed prefix.  The outcome of that repair is
    exposed as :attr:`recovery`.

    ``injector=`` hosts the ``storage.sst_write`` and
    ``storage.manifest_write`` fault sites: a planned crash writes a
    prefix of the payload, flushes it, and raises
    :class:`~repro.faults.InjectedCrashError` — exactly the bytes a
    process killed mid-``write`` would leave behind.  A crashed writer
    refuses all further appends (``close`` stays legal).
    """

    def __init__(
        self,
        path: Path | str,
        recover: bool = False,
        injector: FaultInjector | None = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._injector = injector
        self._crashed = False
        self._offset = 0
        self._pending: list[ManifestEntry] = []
        self._last_manifest_offset: int | None = None
        self.recovery: RepairAction | None = None
        if recover and self.path.exists():
            self.recovery = repair_log(
                classify_log(self.path), self.path.parent / QUARANTINE_DIR
            )
        if recover and self.path.exists():
            size = os.path.getsize(self.path)
            if size < FOOTER_SIZE:
                raise ManifestCorruptionError(
                    self.path,
                    f"repaired log still too small ({size} bytes)",
                    offset=0,
                )
            self._fh = open(self.path, "r+b")
            try:
                self._fh.seek(size - FOOTER_SIZE)
                self._last_manifest_offset = decode_footer(
                    self._fh.read(FOOTER_SIZE)
                )
                self._fh.seek(size)
            except BaseException:
                # a half-constructed writer has no owner to close it
                self._fh.close()
                raise
            self._offset = size
        else:
            # fresh log (also the recover case where the whole file was
            # quarantined: nothing was committed, start over)
            self._fh = open(self.path, "wb")

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def pending_entries(self) -> int:
        return len(self._pending)

    def _write_payload(self, site: str, payload: bytes) -> None:
        """Append ``payload``, honouring any planned crash at ``site``."""
        if self._crashed:
            raise RuntimeError(
                f"{self.path.name}: log writer already crashed; "
                "no further appends"
            )
        spec = None if self._injector is None else self._injector.check(site)
        if spec is not None and spec.action == ACTION_CRASH:
            cut = int(len(payload) * min(max(spec.arg, 0.0), 1.0))
            self._fh.write(payload[:cut])
            self._fh.flush()
            self._offset += cut
            self._crashed = True
            raise InjectedCrashError(
                site, spec.rank, spec.index,
                f"wrote {cut} of {len(payload)} bytes to {self.path.name}",
            )
        self._fh.write(payload)
        self._offset += len(payload)

    def append_batch(
        self,
        batch: RecordBatch,
        epoch: int,
        sort: bool = True,
        stray: bool = False,
        sub_id: int = 0,
    ) -> ManifestEntry:
        """Compact a batch into an SSTable and append it to the log."""
        data, info = build_sstable(batch, epoch, sort=sort, stray=stray, sub_id=sub_id)
        entry = ManifestEntry(
            offset=self._offset,
            length=len(data),
            count=info.count,
            kmin=info.kmin,
            kmax=info.kmax,
            epoch=epoch,
            flags=info.flags,
            sub_id=sub_id,
        )
        self._write_payload(SITE_SST_WRITE, data)
        self._pending.append(entry)
        return entry

    def flush_epoch(self, epoch: int) -> None:
        """Persist pending manifest entries and a fresh footer.

        Called at the end of every checkpoint epoch (paper §V-A aligns
        CARP's durability with the application's epoch semantics).
        Writing an empty manifest is legal — it still advances the
        footer so the log parses cleanly.

        The manifest block and its footer are one write payload, so an
        injected ``storage.manifest_write`` crash can tear anywhere
        across them — recovery must cope with a complete block whose
        footer never landed.
        """
        block = encode_manifest_block(self._pending, epoch, self._last_manifest_offset)
        block_offset = self._offset
        self._write_payload(
            SITE_MANIFEST_WRITE, block + encode_footer(block_offset)
        )
        # the footer is the commit record: it must be durable before we
        # report the epoch flushed (carp-lint W902)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._last_manifest_offset = block_offset
        self._pending = []

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "LogWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SSTRead(NamedTuple):
    """What one :meth:`LogReader.read_sst` call returned and touched."""

    #: the SST's records — all of them, or those with keys in ``[lo, hi]``
    batch: RecordBatch
    #: bytes of the spans this call consulted
    bytes_read: int
    #: spans this call issued
    requests: int
    #: key chunks this call verified and searched
    key_chunks: int


class SSTKeysRead(NamedTuple):
    """What one :meth:`LogReader.read_sst_keys` call returned and touched."""

    #: the SST's keys — all of them, or those in ``[lo, hi]``
    keys: np.ndarray
    bytes_read: int
    requests: int
    key_chunks: int


class _Head(NamedTuple):
    """One committed SST's head, verified and decoded when its reader opened."""

    info: SSTableInfo
    #: the zone map's min and max columns, one float per chunk
    zmin: array[float]
    zmax: array[float]
    #: the CRC of every key chunk and of every value chunk
    key_crcs: array[int]
    value_crcs: array[int]


class _Chunks(NamedTuple):
    """One array of an SST's verified column, filled chunk by chunk."""

    #: one item per record; a chunk's rows hold its items once its flag is set
    data: np.ndarray
    #: one byte per chunk, set to 1 after its items were verified and
    #: copied into :attr:`data` (never before, never for a bad chunk)
    verified: bytearray


def _unverified(chunks: _Chunks, first: int, stop: int) -> Iterator[tuple[int, int]]:
    """The runs ``[a, b)`` of chunks in ``[first, stop)`` whose flag is unset."""
    flags = chunks.verified
    todo = flags.find(0, first, stop)
    while todo >= 0:
        end = flags.find(1, todo, stop)
        end = stop if end < 0 else end
        yield todo, end
        todo = flags.find(0, end, stop)


def _keep(chunks: _Chunks, first: int, stop: int, items: np.ndarray) -> None:
    """Copy the verified ``items`` of chunks ``[first, stop)`` into ``chunks``.

    The items are written before the flags are set, so a thread that
    sees a chunk's flag sees its items; two threads keeping the same
    chunk write the same verified bytes.
    """
    start = first * CHUNK_RECORDS
    chunks.data[start : start + len(items)] = items
    chunks.verified[first:stop] = b"\x01" * (stop - first)


class _Column:
    """One SST's verified column: its keys and, once needed, its rids."""

    __slots__ = ("keys", "rids")

    def __init__(self, count: int) -> None:
        self.keys = _Chunks(np.empty(count, dtype=KEY_DTYPE),
                            bytearray(chunk_count(count)))
        #: allocated by the first ranged read that returns this SST's
        #: values, so keys-only reads hold no rids
        self.rids: _Chunks | None = None


class _KeySearch(NamedTuple):
    """The key chunks one ranged read searched."""

    #: the first chunk searched
    first: int
    #: the verified keys of the chunks searched: a view of the SST's
    #: verified column, empty when no zone meets the range
    keys: np.ndarray
    bytes_read: int
    requests: int

    @property
    def chunks(self) -> int:
        return chunk_count(len(self.keys))


#: The search of a ranged read whose range meets no chunk's zone.
_NO_SEARCH = _KeySearch(0, _NO_KEYS, 0, 0)


class LogReader:
    """Read-only, mmap-backed access to a KoiDB log.

    The file is memory-mapped once at open; every SST read is a
    zero-copy ``memoryview`` slice of the map handed straight to the
    parse functions (which copy their outputs), so probing an SST
    touches only that SST's byte range — no whole-file ``read()``
    copies.  The file descriptor used to create the map is closed
    before ``__init__`` returns; the map itself is released by
    :meth:`close` / ``__exit__`` (``tests/storage/test_mmap_lifetime.py``),
    and a reader collected with its map still open warns
    :class:`ResourceWarning`.

    Without ``pin`` the reader opens at the footer at end of file and
    walks the manifest chain behind it, strictly: a torn tail or any
    other damage raises.  ``pin=`` opens it at a validated commit point
    instead (a :class:`~repro.storage.recovery.CommittedState` from
    :func:`~repro.storage.recovery.find_committed_state`, usually via
    :func:`repro.storage.snapshot.pin_snapshot`): no chain walk, and no
    byte after the pin is consulted.  That is the tail-tolerant open —
    a torn epoch simply disappears (paper §V-A) — and what lets a pinned
    reader coexist with a writer appending to the same log.  An empty
    pin (:data:`~repro.storage.recovery.NOTHING_COMMITTED`) is legal
    even for a zero-length file, which such a reader does not map.

    Either way the open makes one pass over the committed entries and
    verifies and decodes each SST's head (header and chunk index) into
    a table, so a ranged read fetches only key and value chunks: the
    head gets the manifest's trust, checked once at open.  A head that
    fails its check does not fail the open; its error is raised by
    every ranged read of that SST, so a damaged SST fails only the
    queries that touch it.  Whole reads ignore the table and verify
    every byte from the file.

    Ranged reads also keep a *verified column* per SST they searched:
    its keys and, once a ranged read returned the SST's values, its
    rids, each with one flag per chunk.  The first read that needs a key
    chunk fetches it, checks its CRC and that its keys are finite, and
    copies it into the column; the first read that needs a value chunk
    fetches it, checks its CRC and copies its rids in.  Later reads
    search the keys and take the rids from the column and fetch nothing
    more from the map (but still count each span in their
    ``bytes_read`` and :attr:`touched`, so accounting does not depend on
    what an earlier read verified).  A chunk that fails its check is
    never kept, so every read that needs it raises; damage that lands
    after a chunk was verified is served from the verified copy until
    the reader reopens.  The columns cost 4 B per record of each SST
    searched and 8 B more per record of each SST whose values were
    read (keys-only reads allocate no rids), and :meth:`close` drops
    them.  Threads sharing a reader may verify a chunk twice, but none
    reads a chunk from the column before its flag is set.
    """

    def __init__(
        self,
        path: Path | str,
        pin: "CommittedState | None" = None,
    ) -> None:
        self.path = Path(path)
        self._map: mmap.mmap | None = None
        fh = open(self.path, "rb")
        try:
            self._size = os.path.getsize(self.path)
            if pin is not None:
                self._entries = list(pin.entries)
            else:
                self._entries = self._load_entries(fh)
            self._heads = self._decode_heads(fh)
            if self._size:
                self._map = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except BaseException:
            # a reader that failed to open has no owner to close it
            fh.close()
            raise
        # the map holds its own reference to the underlying file; the
        # opening descriptor is not needed past this point
        fh.close()
        #: SST heads this reader's open verified and decoded.
        self.heads_decoded = len(self._heads)
        #: verified columns of the SSTs ranged reads searched, by offset
        self._columns: dict[int, _Column] = {}
        #: Attach a list to record the (offset, length) of every span
        #: consulted, in read order — the ground truth for the
        #: bytes-attribution tests.  ``None`` (the default) records
        #: nothing, so a long-lived serve reader does not grow.
        self.touched: list[tuple[int, int]] | None = None

    def _load_entries(self, fh: BinaryIO) -> list[ManifestEntry]:
        if self._size < FOOTER_SIZE:
            raise ManifestCorruptionError(
                self.path,
                f"too small to hold a footer ({self._size} bytes)",
                offset=0,
            )
        fh.seek(self._size - FOOTER_SIZE)
        try:
            offset = decode_footer(fh.read(FOOTER_SIZE))
        except ManifestCorruptionError:
            raise
        except ManifestError as exc:
            raise ManifestCorruptionError(
                self.path, str(exc), offset=self._size - FOOTER_SIZE
            ) from exc
        return walk_manifest_chain(fh, self._size, offset, self.path)

    def _decode_heads(
        self, fh: BinaryIO
    ) -> dict[int, "_Head | BlockCorruptionError"]:
        """Verify and decode every committed SST's head, keyed by offset.

        Reads each head with one ``pread`` rather than through the map:
        the open's reads are not a query's, so :attr:`touched` does not
        record them, and they fault no page of the map into the process.  A head that fails its check maps to its
        error, kept for the ranged reads of that SST.
        """
        heads: dict[int, _Head | BlockCorruptionError] = {}
        for entry in self._entries:
            length = min(head_span_len(entry.count), entry.length)
            try:
                info, zones, crcs = parse_head(
                    os.pread(fh.fileno(), length, entry.offset)
                )
            except BlockCorruptionError as exc:
                heads[entry.offset] = exc.with_traceback(None)
                continue
            # compact arrays of native items: a reader holds one head
            # per committed SST for as long as it is open
            heads[entry.offset] = _Head(
                info,
                array("f", zones[:, 0].astype(np.single).tobytes()),
                array("f", zones[:, 1].astype(np.single).tobytes()),
                array("I", crcs[:, 0].astype(np.uintc).tobytes()),
                array("I", crcs[:, 1].astype(np.uintc).tobytes()),
            )
        return heads

    def _head(self, entry: ManifestEntry) -> _Head:
        """The head decoded at open for a committed SST, or its error."""
        head = self._heads.get(entry.offset)
        if isinstance(head, _Head):
            return head
        if head is None:
            raise ValueError(
                f"{self.path.name}: no committed SST at offset {entry.offset}"
            )
        # a fresh error per read: the kept one is shared by every read
        # of this SST, and raising it would attach this read's traceback
        raise BlockCorruptionError(*head.args)

    @property
    def entries(self) -> list[ManifestEntry]:
        return self._entries

    def entries_for(self, epoch: int) -> list[ManifestEntry]:
        """Manifest entries of one epoch, in manifest order."""
        return [e for e in self._entries if e.epoch == epoch]

    @property
    def key_chunks_verified(self) -> int:
        """Key chunks held verified in this reader's columns."""
        return sum(c.keys.verified.count(1) for c in list(self._columns.values()))

    @property
    def value_chunks_verified(self) -> int:
        """Value chunks whose rids this reader's columns hold verified."""
        return sum(c.rids.verified.count(1) for c in list(self._columns.values())
                   if c.rids is not None)

    def _column(self, entry: ManifestEntry) -> _Column:
        """The SST's verified column, created empty on first use."""
        column = self._columns.get(entry.offset)
        if column is None:
            column = self._columns.setdefault(entry.offset, _Column(entry.count))
        return column

    def _view(self, offset: int, length: int) -> memoryview:
        """Zero-copy view of ``length`` bytes at ``offset``."""
        if self._map is None:
            raise ValueError(f"{self.path.name}: reader holds no data")
        return memoryview(self._map)[offset : offset + length]

    def _span(self, offset: int, length: int) -> memoryview:
        """:meth:`_view`, recorded in :attr:`touched`."""
        view = self._view(offset, length)
        if self.touched is not None:
            self.touched.append((offset, len(view)))
        return view

    def read_sst(
        self,
        entry: ManifestEntry,
        lo: float | None = None,
        hi: float | None = None,
    ) -> SSTRead:
        """Read an SSTable: all of it, or the records with keys in ``[lo, hi]``.

        Without bounds the whole SST is one span and every chunk and
        zone is verified from the file.  With bounds the read is
        keys-first, against the head decoded at open: only the key
        chunks whose zone meets the range are searched (binary search
        on a sorted SST, range mask otherwise), in this reader's
        verified column, which fetches and verifies each chunk on its
        first search; the rids of the matched rows come from the same
        column, which fetches and verifies each value chunk covering
        them on its first use.  A range that meets no zone reads
        nothing.  Either way every key and every rid returned was
        CRC-checked by this reader, and the returned batch holds no
        view of the map: a ranged read's keys and rids are read-only
        views of the column (or read-only copies).
        """
        err: BlockCorruptionError | None = None
        try:
            if lo is None or hi is None:
                read = self._read_whole(entry)
            else:
                read = self._read_range(entry, lo, hi)
        except BlockCorruptionError as exc:
            # re-raised outside the handler so the original traceback —
            # whose frames hold memoryview slices of the map — is
            # dropped and close() cannot fail with a BufferError
            err = BlockCorruptionError(*exc.args)
        if err is not None:
            raise err
        return read

    def _read_whole(self, entry: ManifestEntry) -> SSTRead:
        view = self._span(entry.offset, entry.length)
        info, batch = parse_sstable(view)
        return SSTRead(batch, len(view), 1, chunk_count(info.count))

    def _read_range(self, entry: ManifestEntry, lo: float, hi: float) -> SSTRead:
        head = self._head(entry)
        info = head.info
        found = self._search_keys(entry, head, lo, hi)
        first, keys = found.first, found.keys
        rows = match_rows(info, keys, lo, hi)
        if isinstance(rows, slice):
            start, stop = rows.start, rows.stop
        else:
            start, stop = (int(rows[0]), int(rows[-1]) + 1) if len(rows) else (0, 0)
        if start == stop:
            return SSTRead(RecordBatch.empty(info.value_size), found.bytes_read,
                           found.requests, found.chunks)
        # one span over the value chunks covering the matched rows:
        # contiguous for a sorted SST, first-to-last match for an
        # unsorted one.  Rows count from the first searched chunk.
        vfirst = first + start // CHUNK_RECORDS
        vstop = first + (stop - 1) // CHUNK_RECORDS + 1
        offset, length = value_chunks_span(info, vfirst, vstop)
        if self.touched is not None:
            self.touched.append((entry.offset + offset, length))
        rids = self._verified_rids(entry, head, vfirst, vstop)
        rids = rids[first * CHUNK_RECORDS :][rows]
        # the column's keys and rids passed their checks when it was filled
        batch = RecordBatch._derived(
            _read_only(keys[rows]), _read_only(rids), info.value_size
        )
        return SSTRead(batch, found.bytes_read + length,
                       found.requests + 1, found.chunks)

    def _search_keys(
        self, entry: ManifestEntry, head: _Head, lo: float, hi: float
    ) -> _KeySearch:
        """The verified keys of the chunks whose zone meets ``[lo, hi]``.

        Chunks of the span this reader has not verified yet are fetched,
        checked and copied into the SST's column first.  The whole span
        counts as read, and is recorded in :attr:`touched`, either way.
        """
        first, stop = zone_chunks(head.info, head.zmin, head.zmax, lo, hi)
        if first >= stop:
            return _NO_SEARCH
        offset, length = key_chunks_span(entry.count, first, stop)
        if self.touched is not None:
            self.touched.append((entry.offset + offset, length))
        keys = self._column(entry).keys
        for a, b in _unverified(keys, first, stop):
            span_offset, span_length = key_chunks_span(entry.count, a, b)
            span = self._view(entry.offset + span_offset, span_length)
            _keep(keys, a, b, key_chunks_view(span, head.key_crcs[a:b], a))
        found = keys.data[first * CHUNK_RECORDS : stop * CHUNK_RECORDS]
        return _KeySearch(first, found, length, 1)

    def _verified_rids(
        self, entry: ManifestEntry, head: _Head, first: int, stop: int
    ) -> np.ndarray:
        """The SST's rid column, with value chunks ``[first, stop)`` verified.

        Chunks this reader has not verified yet are fetched, CRC-checked
        and their rids copied into the column first.
        """
        column = self._column(entry)
        rids = column.rids
        if rids is None:
            # a racing thread may install its own array: each read fills
            # and returns from the one it took, so only work is lost
            rids = column.rids = _Chunks(np.empty(entry.count, dtype=RID_DTYPE),
                                         bytearray(chunk_count(entry.count)))
        info = head.info
        for a, b in _unverified(rids, first, stop):
            offset, length = value_chunks_span(info, a, b)
            span = self._view(entry.offset + offset, length)
            _keep(rids, a, b, value_chunks_rids(
                span, head.value_crcs[a:b], info.value_size, a))
        return rids.data

    def read_sst_keys(
        self,
        entry: ManifestEntry,
        lo: float | None = None,
        hi: float | None = None,
    ) -> SSTKeysRead:
        """Read an SSTable's keys: all of them, or those in ``[lo, hi]``.

        Without bounds the head and the whole key block are one span and
        every key chunk is verified.  With bounds only the key chunks
        whose zone meets the range are searched, in the reader's
        verified column, against the head decoded at open, as in
        :meth:`read_sst`; the keys returned are read-only.
        """
        err: BlockCorruptionError | None = None
        try:
            read = self._read_keys(entry, lo, hi)
        except BlockCorruptionError as exc:
            # as in read_sst: no frame holding a slice of the map
            # survives in the raised error's traceback
            err = BlockCorruptionError(*exc.args)
        if err is not None:
            raise err
        return read

    def _read_keys(
        self, entry: ManifestEntry, lo: float | None, hi: float | None
    ) -> SSTKeysRead:
        if lo is None or hi is None:
            # head + key block length is derivable from the entry count
            view = self._span(
                entry.offset, min(keys_span_len(entry.count), entry.length)
            )
            info, keys = parse_keys_only(view)
            return SSTKeysRead(keys, len(view), 1, chunk_count(info.count))
        head = self._head(entry)
        found = self._search_keys(entry, head, lo, hi)
        keys = _read_only(found.keys[match_rows(head.info, found.keys, lo, hi)])
        return SSTKeysRead(keys, found.bytes_read, found.requests, found.chunks)

    def close(self) -> None:
        self._columns = {}
        if self._map is not None and not self._map.closed:
            self._map.close()

    def __del__(self) -> None:
        # an mmap collected while open warns nothing, so without this a
        # reader dropped unclosed would leak unseen; an __init__ that
        # raised early (a subclass's, too) may not have set _map
        mapped = getattr(self, "_map", None)
        if mapped is not None and not mapped.closed:
            warnings.warn(
                f"unclosed LogReader {self.path}", ResourceWarning, source=self
            )

    def __enter__(self) -> "LogReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SSTCheck(NamedTuple):
    """What :func:`check_sst` found in one committed SST."""

    #: the SST's records (``None`` when they could not be read)
    batch: RecordBatch | None
    #: one line per violated invariant, each naming ``log@offset``
    problems: list[str]


def check_sst(reader: LogReader, entry: ManifestEntry) -> SSTCheck:
    """Read one committed SST whole and check it against its manifest entry.

    The one verifier of committed data (``fsck`` and
    :func:`~repro.storage.recovery.classify_log` with ``deep=True``):
    every chunk CRC and every chunk's zone (through
    :meth:`LogReader.read_sst`), the record count, the key range, and
    the SORTED flag.
    """
    where = f"{reader.path.name}@{entry.offset}"
    try:
        batch = reader.read_sst(entry).batch
    except (BlockCorruptionError, ManifestError, OSError) as exc:
        return SSTCheck(None, [f"{where}: corrupt SST: {exc}"])
    problems = []
    if len(batch) != entry.count:
        problems.append(
            f"{where}: count mismatch ({len(batch)} != {entry.count})"
        )
    if len(batch):
        kmin = float(batch.keys.min())
        kmax = float(batch.keys.max())
        if kmin != entry.kmin or kmax != entry.kmax:
            problems.append(
                f"{where}: key range mismatch ([{kmin}, {kmax}] != "
                f"[{entry.kmin}, {entry.kmax}])"
            )
    if entry.flags & FLAG_SORTED and np.any(np.diff(batch.keys) < 0):
        problems.append(f"{where}: SORTED flag set but keys are unsorted")
    return SSTCheck(batch, problems)

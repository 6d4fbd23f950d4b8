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

import functools
import mmap
import os
import warnings
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from pathlib import Path
from typing import Any, BinaryIO, Literal, NamedTuple, overload

import numpy as np

from repro.core.records import KEY_DTYPE, RID_DTYPE, RecordBatch, _f32_bounds, range_mask
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
    chunks_span,
    head_span_len,
    keys_span_len,
    parse_head,
    parse_keys_only,
    parse_sstable,
)

LOG_PREFIX = "RDB-"
LOG_SUFFIX = ".tbl"

_KEY_SIZE = KEY_DTYPE.itemsize
#: What a ranged read that matches no row returns: read-only, shared.
_NO_KEYS = np.empty(0, dtype=KEY_DTYPE)
_NO_KEYS.flags.writeable = False
_NO_RIDS = np.empty(0, dtype=RID_DTYPE)
_NO_RIDS.flags.writeable = False


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


def _no_rows(
    values: bool, value_size: int, key_bytes: int = 0, key_chunks: int = 0
) -> SSTRead | SSTKeysRead:
    """A ranged read that matched no row after searching ``key_chunks`` chunks."""
    requests = int(key_chunks > 0)
    if values:
        return SSTRead(RecordBatch._derived(_NO_KEYS, _NO_RIDS, value_size),
                       key_bytes, requests, key_chunks)
    return SSTKeysRead(_NO_KEYS, key_bytes, requests, key_chunks)


class _Probe(NamedTuple):
    """One committed SST's head, verified and decoded when its reader
    opened, and the constants a ranged read works out its spans from."""

    info: SSTableInfo
    #: the zone map's min and max columns, one float per chunk
    zmin: array[float]
    zmax: array[float]
    #: the CRC of every key chunk and of every value chunk
    key_crcs: array[int]
    value_crcs: array[int]
    is_sorted: bool
    count: int
    value_size: int
    #: file offsets of the first key chunk and of the first value chunk
    keys_base: int
    values_base: int


class _Chunks(NamedTuple):
    """One array of an SST's verified column, filled chunk by chunk."""

    #: one item per record; a chunk's rows hold its items once its flag is set
    data: np.ndarray
    #: one byte per chunk, set to 1 after its items were verified and
    #: copied into :attr:`data` (never before, never for a bad chunk)
    verified: bytearray
    #: a read-only view of :attr:`data`: a ranged read's results are
    #: slices of it, read-only without a flag set per read
    frozen: np.ndarray


def _new_chunks(count: int, dtype: np.dtype[Any]) -> _Chunks:
    """An empty column array of ``count`` items, no chunk verified."""
    data = np.empty(count, dtype=dtype)
    return _Chunks(data, bytearray(chunk_count(count)), _read_only(data.view()))


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
        self.keys = _new_chunks(count, KEY_DTYPE)
        #: allocated by the first ranged read that returns this SST's
        #: values, so keys-only reads hold no rids
        self.rids: _Chunks | None = None


@functools.lru_cache(maxsize=256)
def _rounded(lo: float, hi: float) -> tuple[float, float, np.ndarray]:
    """``[lo, hi]`` rounded once (:func:`~repro.core.records._f32_bounds`).

    The float32 bounds as Python floats, for :mod:`bisect` on zone maps
    (which hold float32 values exactly), and ``(lo32, next(hi32))``: a
    finite float32 key is at most ``hi32`` exactly when it is below the
    next float32 up, so one left ``searchsorted`` finds the matched run.
    """
    lo32, hi32 = _f32_bounds(float(lo), float(hi))
    search = np.array([lo32, np.nextafter(hi32, KEY_DTYPE.type(np.inf))],
                      dtype=KEY_DTYPE)
    return float(lo32), float(hi32), _read_only(search)


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
    a *probe record*, with the offsets and sizes a ranged read works
    its spans out from, so a ranged read fetches only key and value
    chunks, in one step (:meth:`_read_range`): the head gets the
    manifest's trust, checked once at open.  A head that fails its check does not fail the open; its
    error is raised by every ranged read of that SST, so a damaged SST
    fails only the queries that touch it.  Whole reads ignore the
    records and verify every byte from the file.

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
            self._probes = self._decode_heads(fh)
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
        self.heads_decoded = len(self._probes)
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
    ) -> dict[int, "_Probe | BlockCorruptionError"]:
        """Verify and decode every committed SST's head into a probe record.

        Reads each head with one ``pread`` rather than through the map:
        the open's reads are not a query's, so :attr:`touched` does not
        record them, and they fault no page of the map into the process.
        A head that fails its check maps to its error, kept for the
        ranged reads of that SST.
        """
        probes: dict[int, _Probe | BlockCorruptionError] = {}
        for entry in self._entries:
            offset, count = entry.offset, entry.count
            length = min(head_span_len(count), entry.length)
            try:
                info, zones, crcs = parse_head(os.pread(fh.fileno(), length, offset))
            except BlockCorruptionError as exc:
                probes[offset] = exc.with_traceback(None)
                continue
            # compact arrays of native items: a reader holds one record
            # per committed SST for as long as it is open
            probes[offset] = _Probe(
                info,
                array("f", zones[:, 0].astype(np.single).tobytes()),
                array("f", zones[:, 1].astype(np.single).tobytes()),
                array("I", crcs[:, 0].astype(np.uintc).tobytes()),
                array("I", crcs[:, 1].astype(np.uintc).tobytes()),
                info.is_sorted, info.count, info.value_size,
                offset + head_span_len(info.count),
                offset + keys_span_len(info.count),
            )
        return probes

    def _probe(self, entry: ManifestEntry) -> _Probe:
        """The probe record built at open for a committed SST, or its error."""
        probe = self._probes.get(entry.offset)
        if type(probe) is _Probe:
            return probe
        if probe is None:
            raise ValueError(
                f"{self.path.name}: no committed SST at offset {entry.offset}"
            )
        # a fresh error per read: the kept one is shared by every read
        # of this SST, and raising it would attach this read's traceback
        raise BlockCorruptionError(*probe.args)

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
        zone is verified from the file.  With bounds the read is one
        keys-first step over the SST's probe record (:meth:`_read_range`):
        it searches only the key chunks whose zone meets the range and
        takes the rids of the matched rows from the value chunks covering
        them, both through this reader's verified column, which fetches
        and verifies each chunk on its first use.  A range that meets no
        zone reads nothing.  Either way every key and every rid returned
        was CRC-checked by this reader, and the returned batch holds no
        view of the map: a ranged read's keys and rids are read-only
        views of the column (or read-only copies).
        """
        err: BlockCorruptionError | None = None
        try:
            if lo is None or hi is None:
                read = self._read_whole(entry)
            else:
                read = self._read_range(entry, lo, hi, True)
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

    @overload
    def _read_range(
        self, entry: ManifestEntry, lo: float, hi: float, values: Literal[True]
    ) -> SSTRead: ...

    @overload
    def _read_range(
        self, entry: ManifestEntry, lo: float, hi: float, values: Literal[False]
    ) -> SSTKeysRead: ...

    def _read_range(
        self, entry: ManifestEntry, lo: float, hi: float, values: bool
    ) -> SSTRead | SSTKeysRead:
        """The records (or, without ``values``, the keys) of one SST in ``[lo, hi]``.

        Every span is arithmetic on the SST's probe record: the key
        chunks from the first to the last whose zone meets the range (two
        ``bisect``s on a sorted SST, a zone scan otherwise), then the
        value chunks covering the matched rows.  Each span counts as
        read, and is recorded in :attr:`touched`, whatever an earlier
        read verified; only chunks whose column flag is unset are
        fetched, verified and kept.  The rows are one ``searchsorted``
        on a sorted SST and :func:`range_mask` otherwise.
        """
        probe = self._probes.get(entry.offset)
        if type(probe) is not _Probe:
            probe = self._probe(entry)
        (_info, zmin, zmax, _key_crcs, _value_crcs, is_sorted, count,
         value_size, keys_base, values_base) = probe
        if not lo <= hi:
            # hi < lo or a NaN bound: nothing can match
            return _no_rows(values, value_size)
        lo_f, hi_f, search = _rounded(lo, hi)
        if is_sorted:
            # fence keys: both zone columns ascend, every chunk between meets
            first, stop = bisect_left(zmax, lo_f), bisect_right(zmin, hi_f)
        else:
            # at a few dozen chunks a scan of the array('f') columns beats NumPy
            hits = [i for i, (z0, z1) in enumerate(zip(zmin, zmax))
                    if z1 >= lo_f and z0 <= hi_f]
            first, stop = (hits[0], hits[-1] + 1) if hits else (0, 0)
        if first >= stop:
            return _no_rows(values, value_size)
        start = first * CHUNK_RECORDS
        end = min(stop * CHUNK_RECORDS, count)
        key_bytes = (end - start) * _KEY_SIZE
        touched = self.touched
        if touched is not None:
            touched.append((keys_base + start * _KEY_SIZE, key_bytes))
        column = self._columns.get(entry.offset)
        if column is None:
            column = self._columns.setdefault(entry.offset, _Column(count))
        keys = column.keys
        if keys.verified.find(0, first, stop) >= 0:
            self._fill_keys(probe, keys, first, stop)
        # rows count from the first searched chunk
        found = keys.frozen[start:end]
        if is_sorted:
            a, b = found.searchsorted(search).tolist()
            # lo and hi between the same two adjacent float32s round
            # past each other: the run is then empty
            if a >= b:
                return _no_rows(values, value_size, key_bytes, stop - first)
            matched = found[a:b]
        else:
            rows = np.flatnonzero(range_mask(found, lo, hi))
            if not len(rows):
                return _no_rows(values, value_size, key_bytes, stop - first)
            a, b = int(rows[0]), int(rows[-1]) + 1
            matched = _read_only(found[rows])
        if not values:
            return SSTKeysRead(matched, key_bytes, 1, stop - first)
        # one span over the value chunks covering the matched rows:
        # contiguous for a sorted SST, first-to-last match for an
        # unsorted one
        vfirst = (start + a) // CHUNK_RECORDS
        vstop = (start + b - 1) // CHUNK_RECORDS + 1
        vbegin = vfirst * CHUNK_RECORDS
        value_bytes = (min(vstop * CHUNK_RECORDS, count) - vbegin) * value_size
        if touched is not None:
            touched.append((values_base + vbegin * value_size, value_bytes))
        rids = column.rids
        if rids is None or rids.verified.find(0, vfirst, vstop) >= 0:
            rids = self._fill_rids(probe, column, vfirst, vstop)
        if is_sorted:
            picked = rids.frozen[start + a : start + b]
        else:
            picked = _read_only(rids.data[start:end][rows])
        # the column's keys and rids passed their checks when it was filled
        batch = RecordBatch._derived(matched, picked, value_size)
        return SSTRead(batch, key_bytes + value_bytes, 2, stop - first)

    def _fill_keys(self, probe: _Probe, keys: _Chunks, first: int, stop: int) -> None:
        """Fetch, check and keep the unverified key chunks of ``[first, stop)``."""
        for a, b in _unverified(keys, first, stop):
            span = self._view(
                *chunks_span(probe.keys_base, _KEY_SIZE, probe.count, a, b)
            )
            _keep(keys, a, b, key_chunks_view(span, probe.key_crcs[a:b], a))

    def _fill_rids(
        self, probe: _Probe, column: _Column, first: int, stop: int
    ) -> _Chunks:
        """The column's rids, with value chunks ``[first, stop)`` verified.

        Chunks this reader has not verified yet are fetched, CRC-checked
        and their rids copied into the column first.
        """
        rids = column.rids
        if rids is None:
            # a racing thread may install its own array: each read fills
            # and returns from the one it took, so only work is lost
            rids = column.rids = _new_chunks(probe.count, RID_DTYPE)
        value_size = probe.value_size
        for a, b in _unverified(rids, first, stop):
            span = self._view(
                *chunks_span(probe.values_base, value_size, probe.count, a, b)
            )
            _keep(rids, a, b, value_chunks_rids(
                span, probe.value_crcs[a:b], value_size, a))
        return rids

    def read_sst_keys(
        self,
        entry: ManifestEntry,
        lo: float | None = None,
        hi: float | None = None,
    ) -> SSTKeysRead:
        """Read an SSTable's keys: all of them, or those in ``[lo, hi]``.

        Without bounds the head and the whole key block are one span and
        every key chunk is verified.  With bounds it is :meth:`read_sst`'s
        one-step read without the values: only the key chunks whose zone
        meets the range are searched, in the reader's verified column,
        and the keys returned are read-only.
        """
        err: BlockCorruptionError | None = None
        try:
            if lo is None or hi is None:
                read = self._read_all_keys(entry)
            else:
                read = self._read_range(entry, lo, hi, False)
        except BlockCorruptionError as exc:
            # as in read_sst: no frame holding a slice of the map
            # survives in the raised error's traceback
            err = BlockCorruptionError(*exc.args)
        if err is not None:
            raise err
        return read

    def _read_all_keys(self, entry: ManifestEntry) -> SSTKeysRead:
        # head + key block length is derivable from the entry count
        view = self._span(entry.offset, min(keys_span_len(entry.count), entry.length))
        info, keys = parse_keys_only(view)
        return SSTKeysRead(keys, len(view), 1, chunk_count(info.count))

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

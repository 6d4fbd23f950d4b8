"""Crash recovery for KoiDB logs: classify, quarantine, truncate.

A KoiDB log is an append-only sequence of SSTables, per-epoch manifest
blocks, and footers; the newest *valid* footer is the log's commit
point (paper §V-A: durability is epoch-aligned, a torn epoch simply
disappears).  This module implements the recovery side of that
contract:

* :func:`walk_manifest_chain` — the canonical chain walk, raising
  :class:`~repro.storage.manifest.ManifestCorruptionError` with file /
  chain-index / byte-offset context on any damage,
* :func:`find_committed_state` — locate the newest footer whose whole
  manifest chain validates (falling back across older footers, so even
  a bit-flipped newest footer recovers the previous epoch),
* :func:`classify_log` — diagnose what the bytes after the commit
  point are (torn SST, orphan SSTs, torn manifest, torn footer, …),
* :func:`repair_log` — move the damaged tail into a ``quarantine/``
  subdirectory and truncate the log back to its commit point.

Repair never deletes bytes: tails are *moved* to quarantine files and
logs are truncated (carp-lint rule R701 statically bans deletion APIs
in ``repro.storage`` outside quarantine helpers).  A log with no
committed data at all is quarantined whole.  Corruption *inside* the
committed prefix (a bit-flipped committed SST) is outside the
single-crash fault model and is reported, never repaired.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

from repro.storage.manifest import (
    BLOCK_HDR_SIZE,
    FOOTER_MAGIC,
    FOOTER_SIZE,
    MANIFEST_MAGIC,
    ManifestCorruptionError,
    ManifestEntry,
    ManifestError,
    decode_footer,
    decode_manifest_block,
    manifest_block_size,
)

#: Chunk size for the backward footer scan.  The scan walks the *whole*
#: file in windows this big — a crash can leave arbitrarily many
#: uncommitted bytes after the newest footer (a large epoch's worth of
#: memtable-flush SSTs), so the scan must never give up early and
#: misclassify a log with a valid committed prefix as footer-less.
SCAN_WINDOW = 4 * 1024 * 1024

#: Log diagnosis kinds, roughly ordered by how much of the tail
#: structure survived.
KIND_CLEAN = "clean"
KIND_EMPTY = "empty"
KIND_NO_FOOTER = "no-footer"
KIND_TORN_TAIL = "torn-tail"
KIND_ORPHAN_SST = "orphan-sst"
KIND_TORN_MANIFEST = "torn-manifest"
KIND_TORN_FOOTER = "torn-footer"
KIND_CORRUPT_SST = "corrupt-sst"


def walk_manifest_chain(
    fh: BinaryIO, size: int, offset: int, path: Path | str
) -> list[ManifestEntry]:
    """Walk the backward-linked manifest chain starting at ``offset``.

    Returns all entries in append order.  Any damage raises
    :class:`ManifestCorruptionError` carrying the file, the chain
    block index (0 = the newest block, where the walk starts), and the
    byte offset of the bad block.
    """
    chain: list[list[ManifestEntry]] = []
    seen: set[int] = set()
    cur: int | None = offset
    block_index = 0
    while cur is not None:
        if cur in seen:
            raise ManifestCorruptionError(
                path, "manifest chain cycle",
                entry_index=block_index, offset=cur,
            )
        if cur >= size or cur < 0:
            raise ManifestCorruptionError(
                path, f"manifest offset {cur} outside file of {size} bytes",
                entry_index=block_index, offset=cur,
            )
        seen.add(cur)
        fh.seek(cur)
        # fixed header first to learn the entry count, then the exact
        # remaining block bytes
        head = fh.read(BLOCK_HDR_SIZE)
        if len(head) < BLOCK_HDR_SIZE:
            raise ManifestCorruptionError(
                path, "truncated manifest block header",
                entry_index=block_index, offset=cur,
            )
        n = int.from_bytes(head[-4:], "little")
        # never past the file: a flipped count byte can declare gigabytes,
        # and the short block then fails decoding like any other damage
        rest = fh.read(min(manifest_block_size(n) - BLOCK_HDR_SIZE, size - cur))
        try:
            entries, prev, _epoch = decode_manifest_block(head + rest)
        except ManifestCorruptionError:
            raise
        except ManifestError as exc:
            raise ManifestCorruptionError(
                path, str(exc), entry_index=block_index, offset=cur
            ) from exc
        chain.append(entries)
        cur = prev
        block_index += 1
    out: list[ManifestEntry] = []
    for entries in reversed(chain):
        out.extend(entries)
    return out


@dataclass(frozen=True)
class CommittedState:
    """The newest fully-validated commit point of a log."""

    #: Byte offset just past the committing footer (the commit point).
    footer_end: int
    #: Offset of the newest manifest block that footer points at.
    manifest_offset: int
    #: All manifest entries reachable from that footer, append order.
    entries: tuple[ManifestEntry, ...]

    @property
    def epochs(self) -> tuple[int, ...]:
        return tuple(sorted({e.epoch for e in self.entries}))


#: The commit point of a log that has committed nothing: a reader
#: pinned on it holds no entries.
NOTHING_COMMITTED = CommittedState(footer_end=0, manifest_offset=0, entries=())


def find_committed_state(
    fh: BinaryIO, size: int, path: Path | str
) -> CommittedState | None:
    """Newest footer whose *entire* manifest chain validates.

    A footer that ends at EOF is the newest candidate there can be, so
    it is tried first: on a clean log that is one footer read and the
    chain walk.  Otherwise (or when it fails) the scan runs backwards
    from EOF over every ``KFTR`` occurrence, walking the whole file in
    :data:`SCAN_WINDOW` chunks; a footer only counts if it CRC-decodes
    *and* the chain it points at walks cleanly, so a valid-looking
    footer over a corrupt block falls back to the previous commit
    point.  Returns ``None`` when the log has no committed data at all.
    """
    if size < FOOTER_SIZE:
        return None
    fh.seek(size - FOOTER_SIZE)
    state = _try_footer(fh, fh.read(FOOTER_SIZE), size - FOOTER_SIZE, size, path)
    if state is not None:
        return state
    return _scan_footers(fh, size, path)


def _scan_footers(
    fh: BinaryIO, size: int, path: Path | str
) -> CommittedState | None:
    """The backward :data:`SCAN_WINDOW` scan of :func:`find_committed_state`."""
    if size < FOOTER_SIZE:
        return None
    chunk = max(SCAN_WINDOW, 2 * FOOTER_SIZE)
    window_end = size
    while True:
        base = max(0, window_end - chunk)
        fh.seek(base)
        blob = fh.read(window_end - base)
        pos = len(blob)
        while True:
            pos = blob.rfind(FOOTER_MAGIC, 0, pos)
            if pos < 0:
                break
            abs_pos = base + pos
            if abs_pos + FOOTER_SIZE > size:
                continue  # truncated at EOF
            candidate = blob[pos : pos + FOOTER_SIZE]
            if len(candidate) < FOOTER_SIZE:
                # the footer runs past this window into already-scanned
                # bytes; re-read it whole from the file
                fh.seek(abs_pos)
                candidate = fh.read(FOOTER_SIZE)
            state = _try_footer(fh, candidate, abs_pos, size, path)
            if state is not None:
                return state
        if base == 0:
            return None
        # overlap the next window so a magic string straddling the
        # window boundary is still found
        window_end = base + len(FOOTER_MAGIC) - 1


def _try_footer(
    fh: BinaryIO, candidate: bytes, pos: int, size: int, path: Path | str
) -> CommittedState | None:
    """The commit point of the footer bytes at ``pos``, if they are one."""
    try:
        manifest_offset = decode_footer(candidate)
    except ManifestError:
        return None
    if manifest_offset >= pos:
        return None  # footer pointing past itself: torn rewrite
    try:
        entries = walk_manifest_chain(fh, size, manifest_offset, path)
    except ManifestError:
        return None
    return CommittedState(
        footer_end=pos + FOOTER_SIZE,
        manifest_offset=manifest_offset,
        entries=tuple(entries),
    )


@dataclass(frozen=True)
class LogDiagnosis:
    """What :func:`classify_log` found in one log file."""

    path: str
    kind: str
    size: int
    #: The log's commit point (``None`` when it has none).
    state: CommittedState | None
    detail: str = ""

    @property
    def footer_end(self) -> int:
        """End of the newest valid footer (0 when none)."""
        return self.state.footer_end if self.state is not None else 0

    @property
    def tail_bytes(self) -> int:
        """Bytes after the commit point (the repairable tail)."""
        return self.size - self.footer_end

    @property
    def committed_epochs(self) -> tuple[int, ...]:
        return self.state.epochs if self.state is not None else ()

    @property
    def needs_repair(self) -> bool:
        return self.kind not in (KIND_CLEAN, KIND_CORRUPT_SST)


def _classify_tail(tail: bytes) -> tuple[str, str]:
    """Diagnose the bytes after a log's commit point."""
    from repro.storage.blocks import BlockCorruptionError
    from repro.storage.sstable import HEADER_SIZE, parse_header

    pos = 0
    complete_ssts = 0
    while pos < len(tail):
        rest = tail[pos:]
        if rest.startswith(MANIFEST_MAGIC):
            break
        try:
            info = parse_header(rest[:HEADER_SIZE])
        except BlockCorruptionError as exc:
            return KIND_TORN_TAIL, (
                f"{complete_ssts} complete uncommitted SST(s), then a "
                f"torn/garbage tail at +{pos}: {exc}"
            )
        if pos + info.total_len > len(tail):
            return KIND_TORN_TAIL, (
                f"partial SST at +{pos}: {info.total_len} bytes declared, "
                f"{len(tail) - pos} present"
            )
        complete_ssts += 1
        pos += info.total_len
    if pos >= len(tail):
        return KIND_ORPHAN_SST, (
            f"{complete_ssts} complete SST(s) with no committing manifest"
        )
    # a manifest block starts at pos; is it complete and valid?
    rest = tail[pos:]
    if len(rest) < BLOCK_HDR_SIZE + 4:
        return KIND_TORN_MANIFEST, (
            f"manifest block header truncated at +{pos}"
        )
    n = int.from_bytes(rest[BLOCK_HDR_SIZE - 4 : BLOCK_HDR_SIZE], "little")
    need = manifest_block_size(n)
    if len(rest) < need:
        return KIND_TORN_MANIFEST, (
            f"manifest block at +{pos} truncated: {need} bytes declared, "
            f"{len(rest)} present"
        )
    try:
        decode_manifest_block(rest[:need])
    except ManifestError as exc:
        return KIND_TORN_MANIFEST, f"manifest block at +{pos} invalid: {exc}"
    after = rest[need:]
    if len(after) < FOOTER_SIZE:
        return KIND_TORN_FOOTER, (
            f"valid manifest block at +{pos} but footer missing/short "
            f"({len(after)} of {FOOTER_SIZE} bytes)"
        )
    extra = len(after) - FOOTER_SIZE
    extra_note = f", then {extra} trailing byte(s)" if extra else ""
    try:
        decode_footer(after[:FOOTER_SIZE])
    except ManifestError as exc:
        return KIND_TORN_FOOTER, (
            f"valid manifest block at +{pos} but corrupt footer: "
            f"{exc}{extra_note}"
        )
    # a valid footer here would have been the commit point, so the
    # chain behind it must have failed validation
    return KIND_TORN_MANIFEST, (
        f"manifest block at +{pos} parses but its chain does not "
        f"validate{extra_note}"
    )


def classify_log(path: Path | str, deep: bool = False) -> LogDiagnosis:
    """Diagnose one log file without modifying it.

    Finds the log's commit point (:func:`find_committed_state`) and
    names what follows it.  ``deep=True`` also verifies every committed
    SSTable of a clean log (:func:`repro.storage.log.check_sst`);
    damage there is :data:`KIND_CORRUPT_SST`, not repairable (inside
    the durable prefix, outside the single-crash fault model).
    """
    path = Path(path)
    size = os.path.getsize(path)
    if size == 0:
        return LogDiagnosis(
            path=str(path), kind=KIND_EMPTY, size=0, state=None,
            detail="zero-length log file",
        )
    with open(path, "rb") as fh:
        state = find_committed_state(fh, size, path)
        if state is None:
            return LogDiagnosis(
                path=str(path), kind=KIND_NO_FOOTER, size=size, state=None,
                detail=f"no valid footer in {size} bytes",
            )
        fh.seek(state.footer_end)
        tail = fh.read(size - state.footer_end)
    kind, detail = _classify_tail(tail) if tail else (KIND_CLEAN, "")
    if deep and not tail:
        from repro.storage.log import LogReader, check_sst

        with LogReader(path, pin=state) as reader:
            problems = (check_sst(reader, e).problems for e in state.entries)
            detail = next((p[0] for p in problems if p), "")
        if detail:
            kind = KIND_CORRUPT_SST
    return LogDiagnosis(
        path=str(path), kind=kind, size=size, state=state, detail=detail,
    )


@dataclass(frozen=True)
class RepairAction:
    """What :func:`repair_log` did to one log."""

    path: str
    kind: str
    #: Bytes moved out of the log into quarantine (0 when clean).
    quarantined_bytes: int
    #: Where the quarantined bytes went (``None`` when nothing moved).
    quarantine_path: str | None
    #: True when the whole log held no committed data and was moved.
    removed: bool
    committed_epochs: tuple[int, ...]

    @property
    def changed(self) -> bool:
        return self.quarantined_bytes > 0 or self.removed

    def describe(self) -> str:
        name = Path(self.path).name
        if self.removed:
            return (
                f"{name}: {self.kind}; no committed data — whole file "
                f"quarantined to {self.quarantine_path}"
            )
        if self.quarantined_bytes:
            return (
                f"{name}: {self.kind}; {self.quarantined_bytes} tail "
                f"byte(s) quarantined to {self.quarantine_path}, log "
                f"truncated to committed epochs {list(self.committed_epochs)}"
            )
        return f"{name}: {self.kind}; no repair needed"


def quarantine_tail(
    path: Path, footer_end: int, quarantine_dir: Path
) -> Path:
    """Move ``path``'s bytes after ``footer_end`` into quarantine.

    The tail is copied to ``quarantine_dir/<name>.orphan-<offset>`` and
    the log truncated back to its commit point.  Rename/truncate only —
    never a delete (rule R701) — so an interrupted repair loses nothing.
    """
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    target = quarantine_dir / f"{path.name}.orphan-{footer_end}"
    with open(path, "r+b") as fh:
        fh.seek(footer_end)
        tail = fh.read()
        # the quarantine copy must be durable *before* the truncate
        # commits the repair, or a crash between the two destroys the
        # only copy of the tail (carp-lint W901)
        with open(target, "wb") as out:
            out.write(tail)
            out.flush()
            os.fsync(out.fileno())
        fh.truncate(footer_end)
        fh.flush()
        os.fsync(fh.fileno())
    return target


def quarantine_whole_file(path: Path, quarantine_dir: Path) -> Path:
    """Move an unrecoverable log (no committed data) into quarantine.

    A pure rename: the bytes survive for post-mortem inspection, and
    the target name does not match the ``RDB-*.tbl`` log glob, so the
    directory scan no longer sees the file.
    """
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    target = quarantine_dir / f"{path.name}.quarantined"
    os.replace(path, target)
    return target


def repair_log(diag: LogDiagnosis, quarantine_dir: Path | str) -> RepairAction:
    """Repair one diagnosed log in place; returns what was done.

    ``diag`` comes from :func:`classify_log`.  Clean logs (and logs
    whose only damage is inside the committed prefix, which repair must
    not touch) are left as-is.  Damaged tails move to quarantine and the
    log is truncated to its commit point; logs with no commit point at
    all are quarantined whole.
    """
    path = Path(diag.path)
    quarantine_dir = Path(quarantine_dir)
    if not diag.needs_repair:
        return RepairAction(
            path=str(path), kind=diag.kind, quarantined_bytes=0,
            quarantine_path=None, removed=False,
            committed_epochs=diag.committed_epochs,
        )
    if diag.state is None:
        target = quarantine_whole_file(path, quarantine_dir)
        return RepairAction(
            path=str(path), kind=diag.kind,
            quarantined_bytes=diag.size, quarantine_path=str(target),
            removed=True, committed_epochs=(),
        )
    target = quarantine_tail(path, diag.footer_end, quarantine_dir)
    return RepairAction(
        path=str(path), kind=diag.kind,
        quarantined_bytes=diag.tail_bytes, quarantine_path=str(target),
        removed=False, committed_epochs=diag.committed_epochs,
    )

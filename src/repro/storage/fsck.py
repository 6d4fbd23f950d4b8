"""Integrity checking for KoiDB output directories.

Every on-disk structure carries a CRC (blocks, SST headers, manifest
blocks, footers); ``fsck`` walks a partitioned output directory and
verifies all of them plus the cross-structure invariants queries rely
on:

* each manifest entry's (offset, length, count, kmin, kmax) matches the
  SSTable bytes it points at,
* SST contents are sorted when flagged sorted,
* record ids are unique across the whole directory,
* every log's manifest chain parses back to its first epoch.

``repair=True`` turns the walk into ``fsck --repair``: each damaged
log is classified (:func:`repro.storage.recovery.classify_log`), its
torn tail quarantined and truncated (:func:`repro.storage.recovery.
repair_log`), and the report carries a before/after diff — the errors
the pre-repair walk saw plus a description of every repair performed.

Exposed as a library function and as the ``carp-fsck`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.storage.blocks import BlockCorruptionError
from repro.storage.log import QUARANTINE_DIR, LogReader, list_logs
from repro.storage.manifest import ManifestError
from repro.storage.recovery import classify_log, repair_log


@dataclass
class FsckReport:
    """Outcome of an integrity walk (and, with ``repair``, its diff)."""

    logs_checked: int = 0
    ssts_checked: int = 0
    records_checked: int = 0
    epochs: set[int] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)
    #: Errors the pre-repair walk found (``repair=True`` only).
    errors_before: list[str] = field(default_factory=list)
    #: Per-log damage diagnosis, name -> kind (``repair=True`` only).
    classifications: dict[str, str] = field(default_factory=dict)
    #: Human-readable description of every repair performed.
    repairs: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def repaired(self) -> bool:
        return bool(self.repairs)

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.errors)} ERROR(S)"
        line = (
            f"fsck: {verdict} — {self.logs_checked} logs, "
            f"{self.ssts_checked} SSTs, {self.records_checked} records, "
            f"epochs {sorted(self.epochs)}"
        )
        if self.repairs:
            line += (
                f"; repaired {len(self.repairs)} log(s), "
                f"{len(self.errors_before)} error(s) before repair"
            )
        return line


def fsck(directory: Path | str, deep: bool = True,
         recover: bool = False, repair: bool = False) -> FsckReport:
    """Verify a KoiDB output directory.

    ``deep=False`` checks only manifests/footers (fast); ``deep=True``
    additionally reads and CRC-verifies every SSTable and validates its
    metadata.  ``recover`` opens crash-torn logs at their last valid
    footer instead of reporting the torn tail as an error.  ``repair``
    physically fixes the damage first (quarantine + truncate, see
    :mod:`repro.storage.recovery`) and re-verifies; the report then
    holds both the pre-repair errors and the repairs performed.
    """
    if repair:
        return _fsck_repair(Path(directory), deep=deep)
    return _walk(Path(directory), deep=deep, recover=recover)


def _fsck_repair(directory: Path, deep: bool) -> FsckReport:
    """``fsck --repair``: diagnose, repair, re-verify — with a diff."""
    before = _walk(directory, deep=deep, recover=False)
    quarantine = directory / QUARANTINE_DIR
    classifications: dict[str, str] = {}
    repairs: list[str] = []
    for path in list_logs(directory):
        diag = classify_log(path, deep=deep)
        classifications[path.name] = diag.kind
        action = repair_log(path, quarantine, deep=deep)
        if action.changed:
            repairs.append(action.describe())
    report = _walk(directory, deep=deep, recover=False)
    report.errors_before = before.errors
    report.classifications = classifications
    report.repairs = repairs
    return report


def _walk(directory: Path, deep: bool, recover: bool) -> FsckReport:
    report = FsckReport()
    paths = list_logs(directory)
    if not paths:
        report.errors.append(f"no KoiDB logs under {directory}")
        return report

    seen_rids: set[int] = set()
    for path in paths:
        try:
            reader = LogReader(path, recover=recover)
        except (ManifestError, OSError) as exc:
            report.errors.append(f"{path.name}: unreadable manifest: {exc}")
            continue
        report.logs_checked += 1
        with reader:
            for entry in reader.entries:
                report.ssts_checked += 1
                report.epochs.add(entry.epoch)
                if not deep:
                    continue
                try:
                    batch = reader.read_sst(entry).batch
                except (BlockCorruptionError, ManifestError, OSError) as exc:
                    report.errors.append(
                        f"{path.name}@{entry.offset}: corrupt SST: {exc}"
                    )
                    continue
                report.records_checked += len(batch)
                if len(batch) != entry.count:
                    report.errors.append(
                        f"{path.name}@{entry.offset}: count mismatch "
                        f"({len(batch)} != {entry.count})"
                    )
                if len(batch):
                    kmin = float(batch.keys.min())
                    kmax = float(batch.keys.max())
                    if kmin != entry.kmin or kmax != entry.kmax:
                        report.errors.append(
                            f"{path.name}@{entry.offset}: key range mismatch "
                            f"([{kmin}, {kmax}] != [{entry.kmin}, {entry.kmax}])"
                        )
                from repro.storage.sstable import FLAG_SORTED

                if entry.flags & FLAG_SORTED and len(batch) > 1:
                    if np.any(np.diff(batch.keys) < 0):
                        report.errors.append(
                            f"{path.name}@{entry.offset}: SORTED flag set "
                            "but keys are unsorted"
                        )
                dupes = seen_rids.intersection(batch.rids.tolist())
                if dupes:
                    report.errors.append(
                        f"{path.name}@{entry.offset}: {len(dupes)} duplicate "
                        f"record id(s), e.g. {next(iter(dupes))}"
                    )
                seen_rids.update(batch.rids.tolist())
    return report

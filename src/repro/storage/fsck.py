"""Integrity checking for KoiDB output directories.

Every on-disk structure carries a CRC (blocks, SST headers, manifest
blocks, footers); ``fsck`` walks a partitioned output directory and
diagnoses each log once:

* :func:`repro.storage.recovery.classify_log` finds the log's commit
  point (the newest footer whose manifest chain validates) and names
  the kind of any tail after it — a tail is an error unless
  ``recover=True``, a log with no commit point is an error either way,
* the committed prefix is then read through a reader pinned at that
  commit point, torn tail or not, and every committed SST is checked
  by :func:`repro.storage.log.check_sst` (CRCs, record count, key
  range, SORTED flag),
* record ids are checked unique across the whole directory.

``repair=True`` turns the walk into ``fsck --repair``: each log's
diagnosis goes to :func:`repro.storage.recovery.repair_log` (torn tail
quarantined, log truncated to its commit point), the directory is
walked again, and the report carries a before/after diff — the errors
the pre-repair walk saw plus a description of every repair performed.

Exposed as a library function and as the ``carp fsck`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.storage.log import QUARANTINE_DIR, LogReader, check_sst, list_logs
from repro.storage.recovery import (
    KIND_CLEAN,
    KIND_CORRUPT_SST,
    LogDiagnosis,
    classify_log,
    repair_log,
)


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
    #: Per-log damage diagnosis, name -> kind (before any repair).
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
    additionally reads and verifies every committed SSTable.
    ``recover`` accepts a crash-torn tail after a log's commit point
    instead of reporting it as an error.  ``repair`` physically fixes
    the damage first (quarantine + truncate, see
    :mod:`repro.storage.recovery`) and re-verifies; the report then
    holds both the pre-repair errors and the repairs performed.
    """
    directory = Path(directory)
    # a repair's diff shows every tail it is about to quarantine
    report, diagnoses = _walk(directory, deep, recover and not repair)
    if not repair:
        return report
    quarantine = directory / QUARANTINE_DIR
    repairs = []
    for diag in diagnoses:
        action = repair_log(diag, quarantine)
        if action.changed:
            repairs.append(action.describe())
    after, _ = _walk(directory, deep, recover=False)
    after.errors_before = report.errors
    after.classifications = report.classifications
    after.repairs = repairs
    return after


def _walk(
    directory: Path, deep: bool, recover: bool
) -> tuple[FsckReport, list[LogDiagnosis]]:
    """One pass: each log classified once, its committed prefix verified."""
    report = FsckReport()
    diagnoses: list[LogDiagnosis] = []
    paths = list_logs(directory)
    if not paths:
        report.errors.append(f"no KoiDB logs under {directory}")
        return report, diagnoses

    seen_rids: set[int] = set()
    for path in paths:
        try:
            diag = classify_log(path)
        except OSError as exc:
            report.errors.append(f"{path.name}: unreadable: {exc}")
            continue
        diagnoses.append(diag)
        report.classifications[path.name] = diag.kind
        if diag.state is None:
            report.errors.append(
                f"{path.name}: {diag.kind}: no commit point ({diag.detail})"
            )
            continue
        if diag.kind != KIND_CLEAN and not recover:
            report.errors.append(f"{path.name}: {diag.kind}: {diag.detail}")
        report.logs_checked += 1
        with LogReader(path, pin=diag.state) as reader:
            for entry in reader.entries:
                report.ssts_checked += 1
                report.epochs.add(entry.epoch)
                if not deep:
                    continue
                batch, problems = check_sst(reader, entry)
                if problems and diag.kind == KIND_CLEAN:
                    report.classifications[path.name] = KIND_CORRUPT_SST
                report.errors.extend(problems)
                if batch is None:
                    continue
                report.records_checked += len(batch)
                rids = batch.rids.tolist()
                dupes = seen_rids.intersection(rids)
                if dupes:
                    report.errors.append(
                        f"{path.name}@{entry.offset}: {len(dupes)} duplicate "
                        f"record id(s), e.g. {next(iter(dupes))}"
                    )
                seen_rids.update(rids)
    return report, diagnoses

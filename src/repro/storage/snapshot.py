"""Immutable read snapshots over a directory of KoiDB logs.

KoiDB logs are pure append streams whose commit points are footers
(paper §V-A: durability is epoch-aligned).  That makes a *snapshot*
nearly free: pin, per log, the newest footer whose manifest chain
validates (:func:`repro.storage.recovery.find_committed_state`) and
every byte a reader opened on that pin will ever touch is already
immutable — a concurrent ``ingest_epoch`` only appends *after* the
pinned commit points.  Ingest and any number of snapshot readers can
therefore proceed at the same time with no coordination beyond the
pin itself.

:func:`pin_snapshot` takes the pin; :class:`Snapshot` is plain
metadata (paths + committed states + a token naming the pinned byte
extents), so it can be shared across threads, compared, and handed to
:class:`~repro.query.engine.PartitionedStore` (``snapshot=``) or
:meth:`repro.api.Session.store` to open readers that never see
in-flight epochs.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from repro.storage.log import list_logs
from repro.storage.recovery import (
    NOTHING_COMMITTED,
    CommittedState,
    find_committed_state,
)


@dataclass(frozen=True)
class LogPin:
    """One log's pinned commit point.

    A log that existed at pin time but had no commit point yet (e.g. a
    snapshot taken before the first epoch finished, or a rank whose
    first commit tore) is pinned at :data:`NOTHING_COMMITTED`: readers
    open it empty.
    """

    path: str
    state: CommittedState


@dataclass(frozen=True)
class Snapshot:
    """A pinned, immutable view over a log directory.

    Pure metadata: opening readers is the store's job.  ``token``
    names the pinned byte extents (a digest over per-log commit
    points), so two snapshots compare equal exactly when they pin the
    same committed bytes — the serve cache keys on it.
    """

    directory: str
    logs: tuple[LogPin, ...]
    token: str

    @cached_property
    def _epochs(self) -> tuple[int, ...]:
        # a pin is immutable, so the walk over every manifest entry is
        # done once per pin, not once per request (the serve plane
        # resolves an epoch on every submit); not a dataclass field, so
        # equality and the hash still cover only the pinned extents
        seen: set[int] = set()
        for pin in self.logs:
            for entry in pin.state.entries:
                seen.add(entry.epoch)
        return tuple(sorted(seen))

    def epochs(self) -> tuple[int, ...]:
        """All committed epochs visible in this snapshot, ascending."""
        return self._epochs

    @property
    def latest_epoch(self) -> int | None:
        epochs = self.epochs()
        return epochs[-1] if epochs else None

    def resolve_epoch(self, epoch: int | None) -> int:
        """Map an epoch-or-latest request onto a committed epoch.

        ``None`` means "the newest epoch committed at pin time".
        Raises :class:`ValueError` when the snapshot holds no data or
        the named epoch was not committed when the pin was taken.
        """
        epochs = self.epochs()
        if not epochs:
            raise ValueError(
                f"snapshot {self.token} of {self.directory} holds no "
                "committed epochs"
            )
        if epoch is None:
            return epochs[-1]
        if epoch not in epochs:
            raise ValueError(
                f"epoch {epoch} is not committed in snapshot {self.token} "
                f"(committed: {list(epochs)})"
            )
        return epoch

    def total_records(self) -> int:
        return sum(e.count for pin in self.logs for e in pin.state.entries)


def pin_snapshot(directory: Path | str) -> Snapshot:
    """Pin the last committed state of every log under ``directory``.

    Each log is scanned backwards for the newest footer whose whole
    manifest chain validates (:func:`find_committed_state`) — exactly
    the state crash recovery would restore, which is what makes the
    snapshot safe against a concurrently appending writer: anything
    after the pinned footers is, by definition, not yet committed.
    """
    directory = Path(directory)
    paths = list_logs(directory)
    if not paths:
        raise FileNotFoundError(f"no KoiDB logs under {directory}")
    pins: list[LogPin] = []
    digest = hashlib.sha256()
    for path in paths:
        size = os.path.getsize(path)
        state = NOTHING_COMMITTED
        if size > 0:
            with open(path, "rb") as fh:
                state = find_committed_state(fh, size, path) or state
        pins.append(LogPin(path=str(path), state=state))
        digest.update(f"{path.name}:{state.footer_end};".encode())
    return Snapshot(
        directory=str(directory),
        logs=tuple(pins),
        token=digest.hexdigest()[:16],
    )

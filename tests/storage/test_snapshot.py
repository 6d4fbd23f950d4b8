"""Snapshot metadata: the per-pin epoch tuple is computed once and is
not part of a pin's identity; a log with no commit point pins empty."""

from __future__ import annotations

import numpy as np

from repro.core.records import RecordBatch
from repro.query.engine import PartitionedStore
from repro.storage.log import LogWriter, log_name
from repro.storage.snapshot import pin_snapshot


def test_epochs_are_computed_once_per_pin(carp_output):
    snap = pin_snapshot(carp_output["dir"])
    first = snap.epochs()
    assert first == (0, 1)
    assert snap.epochs() is first
    assert snap.latest_epoch == 1 and snap.resolve_epoch(None) == 1


def test_cached_epochs_do_not_enter_equality(carp_output):
    warm = pin_snapshot(carp_output["dir"])
    warm.epochs()
    cold = pin_snapshot(carp_output["dir"])
    assert warm == cold and hash(warm) == hash(cold)
    assert cold.epochs() == warm.epochs()


def test_log_without_commit_point_pins_empty(tmp_path):
    """One rank's torn first commit degrades only that rank's data."""
    with LogWriter(tmp_path / log_name(0)) as w:
        w.append_batch(RecordBatch.from_keys(
            np.array([1.0, 2.0], np.float32), value_size=8), 0)
        w.flush_epoch(0)
    with LogWriter(tmp_path / log_name(1)) as w:
        # one SST, then the writer died before its first footer
        w.append_batch(RecordBatch.from_keys(
            np.array([1.5], np.float32), rank=1, value_size=8), 0)
    snap = pin_snapshot(tmp_path)
    assert snap.epochs() == (0,)
    with PartitionedStore(tmp_path, snapshot=snap) as store:
        assert store.epochs() == [0]
        assert store.query(0, 0.0, 10.0).keys.tolist() == [1.0, 2.0]

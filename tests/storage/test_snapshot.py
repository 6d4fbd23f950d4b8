"""Snapshot metadata: the per-pin epoch tuple is computed once and is
not part of a pin's identity."""

from __future__ import annotations

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

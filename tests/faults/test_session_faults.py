"""Fault plans through ``Session``: what a crash leaves committed.

A storage error reaches the caller as itself.  Raised mid-epoch it
aborts the epoch on every rank; raised by one rank's epoch commit it
leaves the other ranks' commits standing.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import Session
from repro.core.config import CarpOptions
from repro.faults.plan import (
    ACTION_DROP,
    SITE_MANIFEST_WRITE,
    SITE_SHUFFLE_SEND,
    SITE_SST_WRITE,
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
)
from repro.query.request import QueryRequest
from repro.storage.fsck import fsck
from repro.storage.log import LogReader, list_logs
from repro.traces.vpic import VpicTraceSpec, generate_timestep

OPTIONS = CarpOptions(
    pivot_count=16,
    oob_capacity=32,
    renegotiations_per_epoch=2,
    memtable_records=128,
    round_records=128,
    value_size=8,
    shuffle_delay_rounds=1,
)

EPOCHS = 2
NRANKS = 4


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _streams(epoch: int):
    spec = VpicTraceSpec(
        nranks=NRANKS, particles_per_rank=300, value_size=8, seed=7
    )
    return generate_timestep(spec, epoch)


def _query_digests(out_dir, plan):
    with Session(NRANKS, out_dir, OPTIONS, faults=plan) as session:
        for epoch in range(EPOCHS):
            session.ingest_epoch(epoch, _streams(epoch))
        digests = []
        for epoch in range(EPOCHS):
            res = session.query(QueryRequest(lo=0.25, hi=4.0, epoch=epoch))
            digests.append(
                (_digest(res.keys.tobytes()), _digest(res.rids.tobytes()))
            )
    return digests


def _committed_epochs(out_dir) -> list[set[int]]:
    """Per rank, the epochs its log holds after ``fsck --repair``."""
    report = fsck(out_dir, deep=True, repair=True)
    assert report.ok, report.errors
    epochs = []
    for path in list_logs(out_dir):
        with LogReader(path) as reader:
            epochs.append({e.epoch for e in reader.entries})
    return epochs


def _crash_in_epoch_one(out_dir, plan) -> None:
    with Session(NRANKS, out_dir, OPTIONS, faults=plan) as session:
        session.ingest_epoch(0, _streams(0))
        with pytest.raises(InjectedCrashError) as exc_info:
            session.ingest_epoch(1, _streams(1))
        assert exc_info.value.rank == 1


def test_shuffle_faults_change_nothing_durable(tmp_path):
    """Dropped sends are retransmitted at the epoch drain: the logs
    differ from a fault-free run only in SST grouping, never records."""
    plan = FaultPlan(
        seed=0, specs=(FaultSpec(SITE_SHUFFLE_SEND, 0, 2, 0.0, ACTION_DROP),)
    )
    # same queryable contents even though delivery timing changed
    assert _query_digests(tmp_path / "faulted", plan) == _query_digests(
        tmp_path / "clean", None
    )


def test_torn_commit_on_one_rank_leaves_the_others_committed(tmp_path):
    """A torn epoch-1 manifest on rank 1 fails ``ingest_epoch`` with the
    storage error, and every other rank still commits epoch 1."""
    plan = FaultPlan(
        seed=0, specs=(FaultSpec(SITE_MANIFEST_WRITE, 1, 1, arg=0.5),)
    )
    _crash_in_epoch_one(tmp_path, plan)
    committed = _committed_epochs(tmp_path)
    assert len(committed) == NRANKS
    for rank, epochs in enumerate(committed):
        assert epochs == ({0} if rank == 1 else {0, 1}), rank


def test_mid_epoch_crash_commits_the_epoch_on_no_rank(tmp_path):
    """A torn SST append on rank 1 mid-epoch aborts the epoch at once:
    after repair no rank holds epoch 1."""
    with Session(NRANKS, tmp_path / "clean", OPTIONS) as clean:
        clean.ingest_epoch(0, _streams(0))
        epoch0_ssts = clean.run.koidbs[1].stats.ssts_written
    # the first SST append rank 1 makes in epoch 1: a memtable flush
    # well before the epoch's commit
    plan = FaultPlan(
        seed=0, specs=(FaultSpec(SITE_SST_WRITE, 1, epoch0_ssts, arg=0.5),)
    )
    _crash_in_epoch_one(tmp_path / "faulted", plan)
    assert _committed_epochs(tmp_path / "faulted") == [{0}] * NRANKS

"""Coalesced shuffle delivery: one storage call per destination per round.

``CarpRun._deliver`` concatenates a round's arrivals for each
destination (in arrival order) and makes one ``KoiDB.ingest`` call per
destination.  Main and stray memtables fill with the same record
sequence as one call per message would give, so the log bytes are the
same — except in one corner: when a rank's stray memtable fills inside
the call, the stray SST is appended before main SSTs that per-message
delivery would have appended first.  These tests pin both halves, and
that the corner is itself deterministic across kernel backends.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch, rid_rank
from repro.storage.koidb import KoiDB
from repro.storage.log import LogReader, list_logs, log_name
from repro.storage.sstable import FLAG_STRAY
from repro.traces.vpic import VpicTraceSpec, generate_timestep

from tests.kernels.scalar import BACKENDS, use_backend

MEMTABLE = 8
KOIDB_OPTS = CarpOptions(memtable_records=MEMTABLE, value_size=8, subpartitions=1)

#: the rank owns [0.25, 0.75); keys drawn from [0, 1) make ~half strays
OWNED = (0.25, 0.75)

_part = st.lists(st.floats(0, 1, width=32, exclude_max=True), max_size=2 * MEMTABLE)
_round = st.lists(_part, min_size=1, max_size=4)


def _batches(rounds):
    seq = 0
    out = []
    for parts in rounds:
        batches = []
        for keys in parts:
            batches.append(RecordBatch.from_keys(
                np.array(keys, np.float32), start_seq=seq, value_size=8,
            ))
            seq += len(keys)
        out.append(batches)
    return out


def _strays(batch: RecordBatch) -> int:
    lo, hi = OWNED
    return int(np.count_nonzero((batch.keys < lo) | (batch.keys >= hi)))


def _open(directory) -> KoiDB:
    db = KoiDB(0, directory, KOIDB_OPTS)
    db.begin_epoch(0)
    db.set_owned_range(*OWNED, inclusive_hi=False)
    return db


def _close(db: KoiDB, directory) -> bytes:
    db.finish_epoch()
    db.close()
    return (directory / log_name(0)).read_bytes()


@given(rounds=st.lists(_round, min_size=1, max_size=8))
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_coalesced_ingest_matches_sequential(tmp_path_factory, rounds):
    """Bytes match whenever the stray memtable does not fill in a call.

    A round whose strays would fill the stray memtable is delivered
    per message on both sides, so both stay in step and every other
    round is compared as coalesced vs. sequential.
    """
    coalesced_dir = tmp_path_factory.mktemp("coalesced")
    sequential_dir = tmp_path_factory.mktemp("sequential")
    coalesced, sequential = _open(coalesced_dir), _open(sequential_dir)
    strays_buffered = 0
    for parts in _batches(rounds):
        round_strays = sum(_strays(p) for p in parts)
        if strays_buffered + round_strays < MEMTABLE:
            coalesced.ingest(RecordBatch.concat(parts))
        else:
            for part in parts:
                coalesced.ingest(part)
        for part in parts:
            sequential.ingest(part)
        strays_buffered = (strays_buffered + round_strays) % MEMTABLE
    assert _close(coalesced, coalesced_dir) == _close(sequential, sequential_dir)


def test_stray_sst_can_precede_main_sst_of_the_same_delivery(tmp_path):
    """The one documented difference, pinned: a full stray memtable."""
    main = RecordBatch.from_keys(np.full(MEMTABLE, 0.5, np.float32), value_size=8)
    strays = RecordBatch.from_keys(
        np.full(MEMTABLE, 0.9, np.float32), start_seq=MEMTABLE, value_size=8,
    )
    orders = {}
    for name, calls in (("coalesced", [RecordBatch.concat([main, strays])]),
                        ("sequential", [main, strays])):
        directory = tmp_path / name
        db = _open(directory)
        for batch in calls:
            db.ingest(batch)
        _close(db, directory)
        with LogReader(directory / log_name(0)) as reader:
            orders[name] = [
                (bool(e.flags & FLAG_STRAY), e.count) for e in reader.entries
            ]
    assert orders["sequential"] == [(False, MEMTABLE), (True, MEMTABLE)]
    assert orders["coalesced"] == [(True, MEMTABLE), (False, MEMTABLE)]


# ------------------------------------------------- the corner, end to end

#: a memtable small enough that one rank receives a memtable's worth of
#: strays in one round, so ingest reaches the stray-before-main corner
CORNER_OPTS = CarpOptions(
    pivot_count=32,
    oob_capacity=32,
    renegotiations_per_epoch=3,
    memtable_records=32,
    round_records=128,
    value_size=8,
)
CORNER_SPEC = VpicTraceSpec(nranks=4, particles_per_rank=300, value_size=8, seed=0)


def _ingest_logs(out_dir, kernels="vector") -> dict[str, str]:
    with use_backend(kernels):
        with CarpRun(CORNER_SPEC.nranks, out_dir, CORNER_OPTS) as run:
            for epoch in range(2):
                run.ingest_epoch(epoch, generate_timestep(CORNER_SPEC, epoch))
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in list_logs(out_dir)
    }


def _deliver_per_rank_message(self, messages):
    """One storage call per (source rank, destination) share.

    A message carries one destination's share of a whole routing pass,
    its records in source-rank order; cutting it where the rid's rank
    changes re-creates the calls one message per rank would make.
    """
    for msg in messages:
        cuts = np.flatnonzero(np.diff(rid_rank(msg.batch.rids))) + 1
        for rows in np.split(np.arange(len(msg.batch)), cuts):
            self.koidbs[msg.dest].ingest(msg.batch.select(rows))


def test_corner_is_reached_and_deterministic(tmp_path, monkeypatch):
    logs = _ingest_logs(tmp_path / "coalesced")
    # the configuration really reaches the corner: delivering each
    # source rank's share on its own lays out at least one rank log
    # differently
    with monkeypatch.context() as patch:
        patch.setattr(CarpRun, "_deliver", _deliver_per_rank_message)
        per_message = _ingest_logs(tmp_path / "per-message")
    assert sorted(per_message) == sorted(logs)
    assert per_message != logs
    # ... and the coalesced layout does not depend on the kernels
    for kernels in BACKENDS:
        assert _ingest_logs(tmp_path / f"k-{kernels}", kernels) == logs

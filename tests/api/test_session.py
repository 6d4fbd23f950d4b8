"""The :class:`repro.api.Session` facade: wiring, views, lifecycle."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Session
from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.query.engine import PartitionedStore
from repro.query.request import QueryRequest
from repro.storage.log import list_logs
from repro.traces.vpic import VpicTraceSpec, generate_timestep

OPTIONS = CarpOptions(
    pivot_count=32,
    oob_capacity=32,
    renegotiations_per_epoch=3,
    memtable_records=256,
    round_records=128,
    value_size=8,
)

SPEC = VpicTraceSpec(nranks=4, particles_per_rank=500, value_size=8, seed=3)


def _streams(epoch: int):
    return generate_timestep(SPEC, epoch)


def test_session_matches_manual_wiring(tmp_path):
    manual_dir = tmp_path / "manual"
    with CarpRun(SPEC.nranks, manual_dir, OPTIONS) as run:
        run.ingest_epoch(0, _streams(0))
    with PartitionedStore(manual_dir) as store:
        expect = store.query(0, 0.5, 2.0)

    with Session(SPEC.nranks, tmp_path / "facade", OPTIONS) as session:
        session.ingest_epoch(0, _streams(0))
        got = session.query(QueryRequest(lo=0.5, hi=2.0, epoch=0))

    assert np.array_equal(got.keys, expect.keys)
    assert np.array_equal(got.rids, expect.rids)
    assert got.cost == expect.cost


def test_store_view_is_cached_until_next_ingest(tmp_path):
    with Session(SPEC.nranks, tmp_path, OPTIONS) as session:
        session.ingest_epoch(0, _streams(0))
        first = session.store()
        assert session.store() is first
        session.ingest_epoch(1, _streams(1))
        second = session.store()
        assert second is not first
        # the fresh view sees both epochs
        assert list(second.epochs()) == [0, 1]


def _log_bytes(out_dir):
    return {p.name: p.read_bytes() for p in list_logs(out_dir)}


@pytest.mark.parametrize("make", [CarpRun, Session], ids=["carprun", "session"])
def test_two_live_runs_close_independently(tmp_path, make):
    """Each run owns its KoiDBs: two alive at once write the same logs
    as each would alone, and close independently."""
    first = make(SPEC.nranks, tmp_path / "first", OPTIONS)
    second = make(SPEC.nranks, tmp_path / "second", OPTIONS)
    first.ingest_epoch(0, _streams(0))
    second.ingest_epoch(0, _streams(1))
    first.ingest_epoch(1, _streams(1))
    first.close()
    second.ingest_epoch(1, _streams(0))  # still open after first closed
    second.close()
    for name, order in (("first", (0, 1)), ("second", (1, 0))):
        with make(SPEC.nranks, tmp_path / f"solo-{name}", OPTIONS) as solo:
            for epoch, step in enumerate(order):
                solo.ingest_epoch(epoch, _streams(step))
        assert _log_bytes(tmp_path / name) == _log_bytes(tmp_path / f"solo-{name}")


def test_default_session_is_serial_and_unrecorded(tmp_path):
    with Session(SPEC.nranks, tmp_path, OPTIONS) as session:
        # ingest calls each rank's KoiDB inline: there is no executor
        assert not hasattr(session, "executor")
        assert not session.obs.enabled


def test_record_builds_metrics_stack(tmp_path):
    with Session(SPEC.nranks, tmp_path, OPTIONS, record=True) as session:
        assert session.obs.enabled
        session.ingest_epoch(0, _streams(0))
        target = session.write_metrics()
    assert target == tmp_path / "metrics.json"
    payload = json.loads(target.read_text())
    assert payload["counters"]  # ingest actually recorded something


def test_closed_session_refuses_views(tmp_path):
    session = Session(SPEC.nranks, tmp_path, OPTIONS)
    session.ingest_epoch(0, _streams(0))
    session.close()
    session.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        session.store()


def test_session_close_releases_log_handles(tmp_path):
    session = Session(SPEC.nranks, tmp_path, OPTIONS)
    session.ingest_epoch(0, _streams(0))
    store = session.store()
    session.close()
    # the attached view was closed with the session
    assert session._store is None
    with pytest.raises(Exception):
        store.query(0, 0.0, 1.0)


def test_ingest_leaves_no_view_of_caller_arrays(tmp_path):
    """Slices of the caller's streams are views; none outlives the call.

    After ``ingest_epoch`` returns, every memtable and OOB buffer is
    empty, so overwriting the caller's arrays cannot reach the
    committed epoch.
    """
    streams = _streams(0)
    originals = [(s.keys.copy(), s.rids.copy()) for s in streams]
    with Session(SPEC.nranks, tmp_path, OPTIONS) as session:
        session.ingest_epoch(0, streams)
        run = session.run
        assert all(len(rank.oob) == 0 for rank in run.ranks)
        for db in run.koidbs:
            assert len(db._main) == 0 and len(db._stray) == 0
        for stream in streams:
            stream.keys[:] = 0.0
            stream.rids[:] = 0
        got = session.query(QueryRequest(lo=-1e9, hi=1e9, epoch=0))
    keys = np.concatenate([k for k, _r in originals])
    rids = np.concatenate([r for _k, r in originals])
    order = np.argsort(rids)
    got_order = np.argsort(got.rids)
    assert np.array_equal(got.rids[got_order], rids[order])
    assert np.array_equal(got.keys[got_order], keys[order])

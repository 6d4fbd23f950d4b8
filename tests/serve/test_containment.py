"""QueryService containment hits: a request whose range lies inside a
cached, completed range of the same pin and epoch is answered by
slicing that range's sorted result, never by the engine."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.core.records import RecordBatch, make_rids
from repro.query.request import STATUS_OK, QueryRequest
from repro.query.service import QueryService
from repro.storage.log import LogReader, list_logs

from tests.serve.conftest import OPTIONS, TRACE, WIDE, streams
from tests.serve.test_service import TIMEOUT, _Gate, _req

NRANKS = 4


def _coarse_streams(seed: int) -> list[RecordBatch]:
    """Keys on a quarter grid, ±0.0 included: every rank emits the same
    keys, so ties span SSTs and logs and their order shows."""
    rng = np.random.default_rng(seed)
    out = []
    for rank in range(NRANKS):
        keys = (rng.integers(-20, 21, 300) / 4).astype(np.float32)
        keys[:5] = -0.0
        keys[5:10] = 0.0
        out.append(RecordBatch(keys, make_rids(rank, 0, len(keys)), 8))
    return out


@pytest.fixture(scope="module")
def dup_session(tmp_path_factory):
    """An open session over one committed epoch of colliding keys."""
    with Session(
        NRANKS, tmp_path_factory.mktemp("dup") / "db", OPTIONS
    ) as session:
        session.ingest_epoch(0, _coarse_streams(5))
        yield session


def _bound_values() -> list[float]:
    """Every grid key, one float32 step either side of it, and one
    float64 step either side of it."""
    grid = np.arange(-21, 22, dtype=np.float64) / 4
    values = {-0.0}
    for key in grid.astype(np.float32):
        values.add(float(key))
        for toward in (-np.inf, np.inf):
            values.add(float(np.nextafter(key, np.float32(toward))))
            values.add(float(np.nextafter(float(key), toward)))
    return sorted(values)


_BOUNDS = _bound_values()


def test_store_has_ties_across_logs(dup_session):
    """The fixture is what the property needs: a key stored in more
    than one log, and both zeros."""
    per_log = []
    for path in list_logs(dup_session.out_dir):
        with LogReader(path) as reader:
            per_log.append({
                float(k) for e in reader.entries
                for k in reader.read_sst(e).batch.keys
            })
    assert any(a & b for a, b in itertools.combinations(per_log, 2))
    keys = dup_session.query(QueryRequest(lo=-np.inf, hi=np.inf)).keys
    zeros = np.signbit(keys[keys == 0])
    assert zeros.any() and not zeros.all()


class TestPayloadProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(_BOUNDS), min_size=4, max_size=4))
    def test_sliced_payload_equals_a_serial_query(self, dup_session, bounds):
        """Container ``[L, H]`` and request ``[lo, hi]`` with
        ``L <= lo <= hi <= H``: bounds on a key, a float32 or float64
        step off one, and one side shared with the container."""
        big_lo, lo, hi, big_hi = sorted(bounds)
        container = QueryRequest(lo=big_lo, hi=big_hi)
        request = QueryRequest(lo=lo, hi=hi, client="sub")
        with QueryService(dup_session.out_dir, workers=1) as service:
            assert service.query(container).ok
            handle = service.submit(request)
            assert handle.done()
            response = handle.result(0)
            stats = service.stats
        assert response.ok and response.cached
        # an equal range is the exact key's hit, any other a contained one
        contained = (lo, hi) != (big_lo, big_hi)
        assert stats.contained_hits == int(contained)
        assert stats.engine_queries == stats.cache_misses == 1
        assert response.payload() == dup_session.query(request).payload()


class TestExclusions:
    """Each ineligible request runs the engine even though a completed
    container is cached."""

    @staticmethod
    def _assert_executed(service, response):
        assert response.status == STATUS_OK and not response.cached
        stats = service.stats
        assert stats.contained_hits == 0
        assert stats.engine_queries == stats.cache_misses == 2

    @pytest.mark.parametrize("field", [
        {"keys_only": True}, {"deadline": 1e9}, {"epoch": 0},
    ], ids=["keys-only", "deadline", "another-epoch"])
    def test_ineligible_request_is_a_miss(self, db_dir, field):
        lo, hi = WIDE
        with QueryService(db_dir, workers=1) as service:
            # the container answers the latest epoch, 1
            assert service.query(QueryRequest(lo=lo, hi=hi)).epoch == 1
            response = service.query(
                QueryRequest(lo=lo + 0.5, hi=hi / 2, **field)
            )
            self._assert_executed(service, response)

    def test_keys_only_container_is_not_sliced(self, db_dir):
        lo, hi = WIDE
        with QueryService(db_dir, workers=1) as service:
            assert service.query(QueryRequest(lo=lo, hi=hi, keys_only=True)).ok
            self._assert_executed(
                service, service.query(QueryRequest(lo=lo + 0.5, hi=hi / 2))
            )

    def test_superseded_pin(self, tmp_path):
        lo, hi = WIDE
        with Session(TRACE.nranks, tmp_path / "db", OPTIONS) as session:
            session.ingest_epoch(0, streams(0))
            service = session.serve(workers=1)
            assert service.query(QueryRequest(lo=lo, hi=hi, epoch=0)).ok
            session.ingest_epoch(1, streams(1))  # re-pins the service
            response = service.query(
                QueryRequest(lo=lo + 0.5, hi=hi / 2, epoch=0)
            )
            self._assert_executed(service, response)
            assert response.snapshot_token == service.snapshot.token
            service.close()

    def test_in_flight_container(self, db_dir):
        lo, hi = WIDE
        service = QueryService(db_dir, workers=1, autostart=False)
        container = service.submit(QueryRequest(lo=lo, hi=hi))
        inner = service.submit(QueryRequest(lo=lo + 0.5, hi=hi / 2))
        # neither a follower of the container nor answered at submit
        assert not inner.done() and service.stats.pending == 2
        service.close()
        assert container.result(TIMEOUT).ok
        self._assert_executed(service, inner.result(TIMEOUT))


def test_contained_hit_takes_no_slot(db_dir, monkeypatch):
    """Answered inside ``submit`` past a full admission queue and a busy
    worker: no slot, no admission, one GDSF use on its container."""
    gate = _Gate(monkeypatch, hold={_req(5).lo})
    outer = _req(0)
    with QueryService(db_dir, workers=1, max_pending=1) as service:
        assert service.query(outer).ok
        held = service.submit(_req(5))
        assert gate.entered.wait(TIMEOUT)
        queued = service.submit(_req(6))
        assert service.stats.pending == 1
        [container] = [
            s for s in service._cache.values() if s.result is not None
        ]
        uses, entries = container.uses, len(service._cache)
        handle = service.submit(
            QueryRequest(lo=outer.lo + 0.1, hi=outer.hi - 0.1)
        )
        assert handle.done() and handle.result(0).cached
        assert len(service._cache) == entries
        assert container.uses == uses + 1
        stats = service.stats
        assert stats.pending == 1 and stats.rejected == 0
        assert stats.contained_hits == 1 and stats.cache_hits == 1
        gate.open()
        assert held.result(TIMEOUT).ok and queued.result(TIMEOUT).ok
    assert service.stats.engine_queries == service.stats.cache_misses == 3

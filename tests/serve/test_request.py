"""QueryRequest/QueryResponse value semantics: validation, payload
canonicalisation, and virtual-time deadline application."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.query.request import (
    LIVE_TOKEN,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_OK,
    QueryRequest,
    QueryResponse,
    response_from_result,
)


def _result(latency: float = 0.25):
    """A QueryResult stand-in (the wrapper is duck-typed)."""
    return SimpleNamespace(
        epoch=0,
        keys=np.array([1.0, 2.0, 3.0], dtype=np.float32),
        rids=np.array([7, 8, 9], dtype=np.uint64),
        cost=SimpleNamespace(latency=latency),
    )


class TestValidation:
    def test_defaults(self):
        req = QueryRequest(lo=0.0, hi=1.0)
        req.validate()
        assert req.epoch is None
        assert req.client == "default"
        assert req.deadline is None
        assert not req.keys_only

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty query range"):
            QueryRequest(lo=2.0, hi=1.0).validate()

    @pytest.mark.parametrize("lo,hi", [(float("nan"), 1.0), (0.0, float("nan")),
                                       (float("nan"), float("nan"))])
    def test_nan_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="NaN"):
            QueryRequest(lo=lo, hi=hi).validate()

    def test_infinite_bounds_are_open_bounds(self):
        QueryRequest(lo=float("-inf"), hi=float("inf")).validate()
        QueryRequest(lo=float("-inf"), hi=0.0).validate()

    def test_non_numeric_bounds_rejected(self):
        with pytest.raises(ValueError, match="must be numbers"):
            QueryRequest(lo="a", hi=1.0).validate()  # type: ignore[arg-type]

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline must be positive"):
            QueryRequest(lo=0.0, hi=1.0, deadline=0.0).validate()

    def test_empty_client_rejected(self):
        with pytest.raises(ValueError, match="client id"):
            QueryRequest(lo=0.0, hi=1.0, client="").validate()


class TestResponse:
    def test_result_compatibility_surface(self):
        resp = response_from_result(
            QueryRequest(lo=0.5, hi=3.5, keys_only=True),
            "query-000001", LIVE_TOKEN, _result(),
        )
        assert resp.ok and resp.status == STATUS_OK
        assert len(resp) == 3
        assert (resp.lo, resp.hi, resp.keys_only) == (0.5, 3.5, True)
        assert resp.epoch == 0
        assert resp.cost is not None and resp.cost.latency == 0.25

    def test_payload_excludes_serving_metadata(self):
        """Same logical answer -> same bytes, whatever the envelope.

        request id, cache flag, snapshot token, and client id all vary
        legitimately between executions of the same query; none may
        leak into the canonical payload (the byte-identity contract).
        """
        base = dict(
            status=STATUS_OK, epoch=1,
            keys=np.array([4.0], dtype=np.float32),
            rids=np.array([11], dtype=np.uint64),
        )
        a = QueryResponse(
            request=QueryRequest(lo=0.0, hi=9.0, client="alice"),
            request_id="query-000001", snapshot_token="aaaa", **base,
        )
        b = QueryResponse(
            request=QueryRequest(lo=0.0, hi=9.0, client="bob"),
            request_id="query-000417", snapshot_token="bbbb",
            cached=True, **base,
        )
        assert a.payload() == b.payload()
        assert a.digest() == b.digest()

    def test_payload_covers_the_answer(self):
        a = response_from_result(
            QueryRequest(lo=0.0, hi=9.0), "q", LIVE_TOKEN, _result()
        )
        other = _result()
        other.keys = np.array([1.0, 2.0, 4.0], dtype=np.float32)
        b = response_from_result(
            QueryRequest(lo=0.0, hi=9.0), "q", LIVE_TOKEN, other
        )
        assert a.payload() != b.payload()


class TestDeadline:
    def test_within_budget_is_ok(self):
        resp = response_from_result(
            QueryRequest(lo=0.0, hi=1.0, deadline=1.0),
            "q", LIVE_TOKEN, _result(latency=0.25),
        )
        assert resp.ok and len(resp) == 3

    def test_exceeded_budget_empties_payload_keeps_cost(self):
        resp = response_from_result(
            QueryRequest(lo=0.0, hi=1.0, deadline=0.1),
            "q", LIVE_TOKEN, _result(latency=0.25),
        )
        assert resp.status == STATUS_DEADLINE_EXCEEDED
        assert not resp.ok
        assert len(resp) == 0 and len(resp.rids) == 0
        # the probe ran; its cost stays visible for the histograms
        assert resp.cost is not None and resp.cost.latency == 0.25
        assert "deadline" in resp.detail

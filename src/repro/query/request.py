"""Typed request/response surface for the read path.

:class:`QueryRequest` names the fields of one range read (``lo``,
``hi``, epoch-or-latest, ``keys_only``) plus the serving-plane ones
(client id, deadline); :class:`QueryResponse` is the typed reply of
``Session.query`` and the serve plane, with a *canonical byte
payload* so "the same query against the same committed snapshot" can
be compared bit-for-bit across kernel backends and across
served-vs-serial execution.

Deadlines are budgets on the *modeled* query latency
(:attr:`~repro.query.engine.QueryCost.latency`, virtual seconds): the
probe work still runs, but a response whose modeled latency exceeds
the budget is returned empty with :data:`STATUS_DEADLINE_EXCEEDED`.
Keeping the deadline in virtual time keeps responses deterministic —
the same request against the same snapshot always gets the same
status, on every backend and under any concurrency.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.query.engine import QueryCost, QueryResult

#: Response statuses.
STATUS_OK = "ok"
STATUS_DEADLINE_EXCEEDED = "deadline-exceeded"
STATUS_REJECTED = "rejected"
STATUS_ERROR = "error"

#: Snapshot token used on responses answered from a live (unpinned)
#: store view rather than a pinned snapshot.
LIVE_TOKEN = "live"


def check_bounds(lo: float, hi: float) -> None:
    """Raise :class:`ValueError` unless ``[lo, hi]`` is a non-empty range.

    NaN is rejected: every comparison with it is False, so ``hi < lo``
    alone lets it through.  ±inf is legal, as an open bound.
    """
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError(f"query bound is NaN: [{lo}, {hi}]")
    if hi < lo:
        raise ValueError(f"empty query range [{lo}, {hi}]")


@dataclass(frozen=True)
class QueryRequest:
    """One range-query request, as a value.

    ``epoch=None`` means "the newest epoch committed in the snapshot
    the request executes against" — the streaming-serving default.
    ``client`` feeds the serve plane's per-client fairness;
    ``deadline`` (virtual seconds of modeled latency) bounds how
    expensive an answer the client will accept.
    """

    lo: float
    hi: float
    epoch: int | None = None
    keys_only: bool = False
    client: str = "default"
    deadline: float | None = None

    def validate(self) -> None:
        """Raise :class:`ValueError` on a malformed request."""
        if not isinstance(self.lo, (int, float)) or not isinstance(
            self.hi, (int, float)
        ):
            raise ValueError(f"lo/hi must be numbers, got {self.lo!r}/{self.hi!r}")
        check_bounds(self.lo, self.hi)
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if not self.client:
            raise ValueError("client id must be non-empty")


_EMPTY_KEYS = np.empty(0, dtype=np.float32)
_EMPTY_RIDS = np.empty(0, dtype=np.uint64)


@dataclass(frozen=True)
class QueryResponse:
    """Typed reply of the read path.

    The fields of a :class:`~repro.query.engine.QueryResult`
    (``keys``, ``rids``, ``cost``, ``epoch``, ``lo``, ``hi``,
    ``len()``) plus the serving-plane envelope: the request it
    answers, its deterministic ``query-NNNNNN`` id, the snapshot token
    it executed against, its status, and whether it was served from
    the result cache.
    """

    request: QueryRequest
    request_id: str
    status: str
    #: The resolved epoch actually queried (-1 when never resolved,
    #: e.g. a rejected request).
    epoch: int
    snapshot_token: str
    keys: np.ndarray = field(default_factory=lambda: _EMPTY_KEYS)
    rids: np.ndarray = field(default_factory=lambda: _EMPTY_RIDS)
    cost: "QueryCost | None" = None
    cached: bool = False
    detail: str = ""

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def lo(self) -> float:
        return self.request.lo

    @property
    def hi(self) -> float:
        return self.request.hi

    @property
    def keys_only(self) -> bool:
        return self.request.keys_only

    def payload(self) -> bytes:
        """The canonical response bytes.

        A sorted-keys JSON header (status, resolved epoch, the query
        fields, match count) followed by the raw key and rid arrays.
        Serving metadata that legitimately varies between executions
        of the *same logical query* — request id, cache hit flag,
        snapshot token, client — is deliberately excluded: the
        byte-identity contract is "same query, same committed data,
        same payload", whether served concurrently or run serially
        post-hoc.
        """
        header = json.dumps(
            {
                "status": self.status,
                "epoch": self.epoch,
                "lo": self.request.lo,
                "hi": self.request.hi,
                "keys_only": self.request.keys_only,
                "matched": int(len(self.keys)),
            },
            sort_keys=True,
        ).encode()
        return b"\x00".join(
            (header, self.keys.tobytes(), self.rids.tobytes())
        )

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`payload`."""
        return hashlib.sha256(self.payload()).hexdigest()


def response_from_result(
    request: QueryRequest,
    request_id: str,
    snapshot_token: str,
    result: "QueryResult",
    cached: bool = False,
) -> QueryResponse:
    """Wrap an executed :class:`QueryResult`, applying deadline semantics.

    The deadline is checked against the modeled latency: an exceeded
    budget yields an *empty* payload with
    :data:`STATUS_DEADLINE_EXCEEDED` but keeps the measured cost, so
    callers (and the serve latency histogram) still see what the
    probe spent.
    """
    if request.deadline is not None and result.cost.latency > request.deadline:
        return QueryResponse(
            request=request,
            request_id=request_id,
            status=STATUS_DEADLINE_EXCEEDED,
            epoch=result.epoch,
            snapshot_token=snapshot_token,
            cost=result.cost,
            cached=cached,
            detail=(
                f"modeled latency {result.cost.latency:.6f}s exceeds "
                f"deadline {request.deadline:.6f}s"
            ),
        )
    return QueryResponse(
        request=request,
        request_id=request_id,
        status=STATUS_OK,
        epoch=result.epoch,
        snapshot_token=snapshot_token,
        keys=result.keys,
        rids=result.rids,
        cost=result.cost,
        cached=cached,
    )

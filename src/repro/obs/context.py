"""Per-request causal context for the telemetry plane.

A :class:`RequestContext` names one logical request — an ingested
epoch or a range query — with a *deterministic* id minted at the
:class:`repro.api.Session` entry points.  The id rides along the
request's whole causal path: driver-side spans pick it up from
``Obs.request_id``, storage-side spans pick it up from each rank's
stack (``KoiDB.set_request``), and the telemetry sample that closes
the request carries it.

Determinism is the point: ids are sequence numbers per request kind
(``ingest-000001``, ``query-000002``, ...), not UUIDs or timestamps,
so the same workload produces the same ids on every run — which is
what lets ``carp profile record DIR --request <id>`` reconstruct one
request's tree from an archived trace and lets tests compare
attribution bit-for-bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class RequestContext:
    """One logical request's identity, carried across the causal path."""

    #: The deterministic id, e.g. ``ingest-000001`` / ``query-000003``.
    request_id: str
    #: Request kind: ``ingest`` | ``query``.
    kind: str
    #: 1-based sequence number within the kind.
    seq: int


class RequestIdAllocator:
    """Mints :class:`RequestContext` ids as per-kind sequence numbers.

    One allocator per :class:`~repro.api.Session`; the id depends only
    on the order of prior requests of the same kind, never on wall
    time or randomness, so a replayed workload re-mints the same ids.

    Minting is thread-safe: the serve plane
    (:class:`~repro.query.service.QueryService`) mints ``query`` ids
    from submitter threads while ``ingest`` ids are minted on the
    driver thread.  Ids stay deterministic as a *set* per kind — the
    sequence a given request receives depends only on the order of
    prior requests of the same kind.
    """

    __slots__ = ("_next", "_mint_lock")

    def __init__(self) -> None:
        self._next: dict[str, int] = {}
        self._mint_lock = threading.Lock()

    def mint(self, kind: str) -> RequestContext:
        """The next request context for ``kind``."""
        with self._mint_lock:
            seq = self._next.get(kind, 0) + 1
            self._next[kind] = seq
        return RequestContext(
            request_id=f"{kind}-{seq:06d}", kind=kind, seq=seq
        )

"""Structured EXPLAIN reports for range queries.

:meth:`repro.query.engine.PartitionedStore.explain` answers "what
would this query do, and why does it cost what it costs" — the
CARMI-style idea that a cost model should be a first-class, queryable
artifact rather than a side effect of execution.  The report carries
per-log attribution (SSTs considered vs. read, candidate bytes vs.
bytes touched vs. skipped, records scanned vs. matched, modeled read
time) plus the exact :class:`QueryCost` the
real query path would compute, and :meth:`QueryExplain.reconcile`
proves the two agree: every per-log column must sum to the matching
cost field, and an independently measured ``QueryCost`` must match
field-for-field.  ``carp explain`` renders this as text or JSON and
fails on any discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.tables import fmt_bytes, fmt_seconds, render_table
from repro.query.engine import QueryCost
from repro.storage.manifest import ManifestEntry


@dataclass(frozen=True)
class LogExplain:
    """One log's share of a query plan."""

    log: str
    ssts_considered: int
    ssts_read: int
    bytes_read: int
    read_requests: int
    #: Bytes of this log's candidate SSTs fetched whole; the probe
    #: touched ``bytes_read`` of them and skipped the rest.
    candidate_bytes: int
    records_scanned: int
    records_matched: int
    #: Modeled time to fetch this log's candidates whole, in isolation
    #: (the value the per-log "probe" trace span carries as its duration).
    read_time: float
    #: The candidate SSTs this query reads from the log, in manifest
    #: order.
    entries: tuple[ManifestEntry, ...]

    @property
    def bytes_skipped(self) -> int:
        return self.candidate_bytes - self.bytes_read

    def to_dict(self) -> dict[str, object]:
        return {
            "log": self.log,
            "ssts_considered": self.ssts_considered,
            "ssts_read": self.ssts_read,
            "bytes_read": self.bytes_read,
            "read_requests": self.read_requests,
            "candidate_bytes": self.candidate_bytes,
            "bytes_skipped": self.bytes_skipped,
            "records_scanned": self.records_scanned,
            "records_matched": self.records_matched,
            "read_time": self.read_time,
            "entries": [
                {
                    "offset": e.offset, "length": e.length,
                    "count": e.count, "kmin": e.kmin, "kmax": e.kmax,
                    "stray": bool(e.flags & 1), "sub_id": e.sub_id,
                }
                for e in self.entries
            ],
        }


@dataclass(frozen=True)
class QueryExplain:
    """Plan + cost report for one range query."""

    directory: str
    epoch: int
    lo: float
    hi: float
    keys_only: bool
    logs: tuple[LogExplain, ...]
    cost: QueryCost

    # ------------------------------------------------------ reconciliation

    def reconcile(self, measured: QueryCost | None = None) -> list[str]:
        """Check internal consistency (and optionally a measured cost).

        Returns human-readable discrepancies; empty means the per-log
        breakdown sums exactly to the report's ``cost``, and — when a
        ``measured`` cost from a real :meth:`PartitionedStore.query` is
        given — that every cost field matches it exactly.  Any
        non-empty result is an engine bug, which is why ``carp explain``
        exits nonzero on it.
        """
        errors: list[str] = []
        totals = {
            "ssts_considered": sum(l.ssts_considered for l in self.logs),
            "ssts_read": sum(l.ssts_read for l in self.logs),
            "bytes_read": sum(l.bytes_read for l in self.logs),
            "read_requests": sum(l.read_requests for l in self.logs),
            "candidate_bytes": sum(l.candidate_bytes for l in self.logs),
            "records_scanned": sum(l.records_scanned for l in self.logs),
            "records_matched": sum(l.records_matched for l in self.logs),
        }
        for field, total in totals.items():
            want = getattr(self.cost, field)
            if total != want:
                errors.append(
                    f"per-log {field} sums to {total}, cost says {want}"
                )
        if measured is not None and measured != self.cost:
            for field in QueryCost.__dataclass_fields__:
                got, want = getattr(self.cost, field), getattr(measured, field)
                if got != want:
                    errors.append(
                        f"explain cost.{field}={got} != measured {want}"
                    )
        return errors

    # ------------------------------------------------------------- export

    def to_dict(self) -> dict[str, object]:
        return {
            "directory": self.directory,
            "epoch": self.epoch,
            "lo": self.lo,
            "hi": self.hi,
            "keys_only": self.keys_only,
            "cost": {
                "ssts_considered": self.cost.ssts_considered,
                "ssts_read": self.cost.ssts_read,
                "bytes_read": self.cost.bytes_read,
                "read_requests": self.cost.read_requests,
                "candidate_bytes": self.cost.candidate_bytes,
                "bytes_skipped": self.cost.bytes_skipped,
                "records_scanned": self.cost.records_scanned,
                "records_matched": self.cost.records_matched,
                "merge_bytes": self.cost.merge_bytes,
                "read_time": self.cost.read_time,
                "merge_time": self.cost.merge_time,
                "latency": self.cost.latency,
            },
            "logs": [l.to_dict() for l in self.logs],
        }

    def render_text(self) -> str:
        """The plan as an aligned table plus a cost summary."""
        cost = self.cost
        mode = "keys only" if self.keys_only else "keys+values"
        lines = [
            f"EXPLAIN epoch {self.epoch} range [{self.lo:g}, {self.hi:g}] "
            f"({mode}) over {self.directory}",
            "",
            render_table(
                ("log", "ssts", "read", "candidate", "bytes", "skipped",
                 "reqs", "scanned", "matched", "read time"),
                [
                    (l.log, l.ssts_considered, l.ssts_read,
                     fmt_bytes(l.candidate_bytes), fmt_bytes(l.bytes_read),
                     fmt_bytes(l.bytes_skipped), l.read_requests,
                     l.records_scanned, l.records_matched,
                     fmt_seconds(l.read_time))
                    for l in self.logs
                ],
            ),
            "",
            f"ssts: {cost.ssts_read}/{cost.ssts_considered} read, "
            f"selectivity {cost.records_matched}/{cost.records_scanned} "
            "records",
            f"io:   {fmt_bytes(cost.bytes_read)} touched in "
            f"{cost.read_requests} requests, "
            f"{fmt_bytes(cost.bytes_skipped)} skipped",
            f"      {fmt_bytes(cost.candidate_bytes)} in {cost.ssts_read} "
            f"whole-SST fetches modeled -> {fmt_seconds(cost.read_time)} read",
            f"cpu:  {fmt_bytes(cost.merge_bytes)} overlapping to merge -> "
            f"{fmt_seconds(cost.merge_time)} merge+scan",
            f"total modeled latency: {fmt_seconds(cost.latency)}",
        ]
        return "\n".join(lines)

"""Deterministic cost-attribution profiles from archived artifacts.

This module folds the observability artifacts a recorded run already
persists — ``trace.json`` span trees and ``metrics.json`` counters —
into collapsed-stack profiles that attribute *counts*: every stack
frame carries how many spans folded into it plus the bytes, records,
SST-probe and match counts those spans reported, and
:meth:`Profile.reconcile` cross-checks the folded totals against the
metrics registry the same way ``carp explain`` reconciles
:class:`~repro.query.explain.QueryExplain` (any drift is an
instrumentation bug, worth a nonzero exit).  Profiles carry no time:
span timestamps are virtual ticks priced per record, not measured
cost, and wall time belongs to the top-level ``ledger/``.  The fold
nests spans by per-lane event order alone and never reads ``ts`` or
``dur``.

Because the inputs are deterministic (the trace contract) and the fold
is pure integer arithmetic over them, the profiles themselves are
deterministic — a contract of their own, enforced by the committed
profile baselines and lint rule O505: profile
builders operate on *archived artifacts only*.  This module therefore
imports nothing from the live observability stack — no clocks, no
tracers, no registries — and consumes plain decoded JSON.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

__all__ = [
    "PHASE_BY_TRACK",
    "Profile",
    "ProfileDiff",
    "ProfileFrame",
    "DiffEntry",
    "RECONCILIATIONS",
    "fold",
    "fold_trace_doc",
    "diff_profiles",
]

#: Phase a track type's spans fold under.  Unknown track types become
#: their own phase, so new subsystems degrade gracefully rather than
#: vanishing from the profile.
PHASE_BY_TRACK: Mapping[str, str] = {
    "route": "route",
    "shuffle": "route",
    "renegotiate": "ingest",
    "epoch": "ingest",
    "sim": "ingest",
    "faults": "ingest",
    "flush": "flush",
    "query": "probe",
    "serve": "serve",
    "compact": "compact",
}

#: ``(attribute, counter, ((phase, leaf), ...))`` join table: the sum
#: of ``attribute`` over frames whose stack starts at ``phase`` and
#: ends at ``leaf`` must equal the metrics counter *exactly*.  These
#: pair the span-arg attribution with the counters incremented at the
#: same code sites (see ``carp trace``'s run-stats reconciliation).
RECONCILIATIONS: tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...] = (
    # route spans count every record a route pass handled, including
    # OOB leftovers re-routed after renegotiation — the counter is
    # incremented at the span site with the same value
    ("records", "carp.records_routed", (("route", "route"),)),
    ("records", "carp.records_shuffled", (("route", "deliver"),)),
    ("records", "koidb.records_in",
     (("flush", "flush"), ("flush", "flush-stray"))),
    ("bytes", "koidb.bytes_written",
     (("flush", "flush"), ("flush", "flush-stray"))),
    ("bytes", "query.probe_bytes", (("probe", "probe"),)),
    # a per-log probe span's ``ssts`` arg is that log's read-request
    # count; the per-query span's ``ssts_read`` arg is the candidate
    # SST count — two different exact quantities, two different joins
    ("ssts", "query.read_requests", (("probe", "probe"),)),
    ("ssts", "query.ssts_read", (("probe", "query"),)),
    ("matched", "query.records_matched", (("probe", "query"),)),
    ("records", "compact.records", (("compact", "compact"),)),
    ("bytes", "compact.bytes_written", (("compact", "compact"),)),
)

_SCHEMA = "carp-profile-v2"
_DIFF_SCHEMA = "carp-profile-diff-v2"
#: The retired schema whose frames carried virtual-time columns.
_V1_SCHEMA = "carp-profile-v1"

#: Per-rank/per-epoch span names ("epoch 3", "level 0") collapse to
#: their stem so one frame aggregates the whole family.
_INSTANCE_SUFFIX = re.compile(r"\s+\d+$")


def _num(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return 0.0
    return float(value)


def _canonical(name: str) -> str:
    return _INSTANCE_SUFFIX.sub("", name)


def _attr_int(args: Mapping[str, object], *names: str) -> int:
    """First numeric (non-bool) arg among ``names``, as an int."""
    for name in names:
        value = args.get(name)
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            return int(value)
    return 0


@dataclass(frozen=True)
class ProfileFrame:
    """One collapsed stack path and its aggregated exact costs."""

    #: ``(phase, name, name, ...)`` — phase first, innermost span last.
    stack: tuple[str, ...]
    #: spans folded into this frame
    count: int
    #: exact bytes attributed by span args (``bytes``/``bytes_read``)
    bytes: int
    #: exact records attributed (``records``/``scanned``)
    records: int
    #: exact SST probes attributed (``ssts``/``ssts_read``)
    ssts: int
    #: exact matched records attributed (``matched``)
    matched: int

    @property
    def path(self) -> str:
        return ";".join(self.stack)

    def to_doc(self) -> dict[str, Any]:
        return {
            "stack": list(self.stack),
            "count": self.count,
            "bytes": self.bytes,
            "records": self.records,
            "ssts": self.ssts,
            "matched": self.matched,
        }


@dataclass(frozen=True)
class Profile:
    """A folded, cost-annotated profile of one recorded run."""

    #: frames sorted by stack path (the canonical, deterministic order)
    frames: tuple[ProfileFrame, ...]
    #: ``E`` events that arrived with no open span (malformed trace)
    unmatched_ends: int
    #: ``B`` events never closed (crashed or truncated recording)
    unclosed_spans: int

    # ------------------------------------------------------------ shape

    def by_path(self) -> dict[str, ProfileFrame]:
        return {f.path: f for f in self.frames}

    def phases(self) -> dict[str, dict[str, int]]:
        """Per-phase rollup: spans and frames folded under each phase."""
        out: dict[str, dict[str, int]] = {}
        for frame in self.frames:
            phase = out.setdefault(frame.stack[0], {"frames": 0, "spans": 0})
            phase["frames"] += 1
            phase["spans"] += frame.count
        return out

    def totals(self) -> dict[str, int]:
        return {
            "spans": sum(f.count for f in self.frames),
            "bytes": sum(f.bytes for f in self.frames),
            "records": sum(f.records for f in self.frames),
            "ssts": sum(f.ssts for f in self.frames),
            "matched": sum(f.matched for f in self.frames),
        }

    # --------------------------------------------------------- documents

    def to_doc(self) -> dict[str, Any]:
        return {
            "schema": _SCHEMA,
            "phases": self.phases(),
            "totals": self.totals(),
            "frames": [f.to_doc() for f in self.frames],
            "unmatched_ends": self.unmatched_ends,
            "unclosed_spans": self.unclosed_spans,
        }

    def to_json(self) -> str:
        """Canonical byte-stable JSON rendering (sorted keys)."""
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"

    def to_folded(self) -> str:
        """Collapsed-stack text: ``phase;span;span <spans>`` per line.

        The format FlameGraph/speedscope consume, each path weighted by
        its span count; sorted by path so the bytes are stable across
        runs and backends.
        """
        return "".join(
            f"{frame.path} {frame.count}\n" for frame in self.frames
        )

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Profile":
        schema = doc.get("schema")
        if schema == _V1_SCHEMA:
            raise ValueError(
                f"{_V1_SCHEMA} documents carry retired virtual-time "
                f"columns; re-record the profile as {_SCHEMA} "
                "(`carp perf run` or `carp profile record`)"
            )
        if schema != _SCHEMA:
            raise ValueError(f"not a {_SCHEMA} document (schema={schema!r})")
        frames = tuple(
            ProfileFrame(
                stack=tuple(str(part) for part in row["stack"]),
                count=int(row["count"]),
                bytes=int(row["bytes"]),
                records=int(row["records"]),
                ssts=int(row["ssts"]),
                matched=int(row["matched"]),
            )
            for row in doc["frames"]
        )
        return cls(
            frames=frames,
            unmatched_ends=int(doc.get("unmatched_ends", 0)),
            unclosed_spans=int(doc.get("unclosed_spans", 0)),
        )

    # ------------------------------------------------------- reconcile

    def _join_sum(self, attr: str,
                  pairs: tuple[tuple[str, str], ...]) -> tuple[int, int]:
        """(attribute sum, matching frame count) over join targets."""
        total = 0
        hits = 0
        for frame in self.frames:
            for phase, leaf in pairs:
                if frame.stack[0] == phase and frame.stack[-1] == leaf:
                    total += int(getattr(frame, attr))
                    hits += frame.count
                    break
        return total, hits

    def reconcile(self, snapshot: Mapping[str, Any]) -> list[str]:
        """Cross-check folded totals against a metrics snapshot.

        Returns human-readable drift descriptions (empty == clean).
        Every join in :data:`RECONCILIATIONS` whose counter exists in
        the snapshot — or whose frames attributed work — must agree
        *exactly*; a malformed trace (unmatched/unclosed spans) is a
        reconciliation failure too, because its totals are partial.
        """
        errors: list[str] = []
        if self.unmatched_ends:
            errors.append(
                f"trace has {self.unmatched_ends} unmatched span end(s)"
            )
        if self.unclosed_spans:
            errors.append(
                f"trace has {self.unclosed_spans} unclosed span(s)"
            )
        counters = snapshot.get("counters", {})
        if not isinstance(counters, Mapping):
            return errors + ["metrics snapshot has no counters mapping"]
        for attr, counter, pairs in RECONCILIATIONS:
            span_sum, hits = self._join_sum(attr, pairs)
            raw = counters.get(counter)
            if raw is None:
                if span_sum:
                    errors.append(
                        f"frames attribute {attr}={span_sum} at "
                        f"{self._join_desc(pairs)} but counter "
                        f"{counter} was never recorded"
                    )
                continue
            want = float(raw)
            if float(span_sum) != want:
                errors.append(
                    f"profile {attr} at {self._join_desc(pairs)} "
                    f"= {span_sum} != counter {counter} = {want:g}"
                )
        return errors

    @staticmethod
    def _join_desc(pairs: tuple[tuple[str, str], ...]) -> str:
        return "+".join(f"{phase};*;{leaf}" for phase, leaf in pairs)


# ------------------------------------------------------------------ fold


def fold(events: Iterable[Mapping[str, Any]], *,
         request: str | None = None) -> Profile:
    """Fold Chrome ``trace_event`` dicts into a collapsed-stack profile.

    Consumes the (already deterministic) archived event order: per
    (pid, tid) lane, ``B``/``E`` pairs nest and ``X`` completes nest
    under whatever span is open on the same lane — by event order
    alone; ``ts`` and ``dur`` are never read.  Instants, counter
    samples, and metadata contribute no frames; metadata names each
    pid's track type, which picks the frame's phase.

    With ``request`` set, only spans whose args carry that ``request``
    id are aggregated — one request's cross-worker tree.  The lane
    stacks still track every span, so a kept span keeps its full stack
    path; a ``B`` span's own ``request`` wins over its ``E`` args.
    """
    process_names: dict[int, str] = {}
    #: per lane, the open ``B`` spans as ``(name, begin args)``
    stacks: dict[tuple[int, int], list[tuple[str, dict[str, object]]]] = {}
    agg: dict[tuple[str, ...], list[int]] = {}
    # aggregate slots: count, bytes, records, ssts, matched — a plain
    # list avoids churning frozen dataclasses per span
    unmatched_ends = 0

    def record(lane: tuple[int, int], name: str,
               args: Mapping[str, object]) -> None:
        if request is not None and args.get("request") != request:
            return
        track = process_names.get(lane[0], f"pid-{lane[0]}")
        phase = PHASE_BY_TRACK.get(track, track)
        path = (phase,) + tuple(
            _canonical(open_name) for open_name, _ in stacks[lane]
        ) + (_canonical(name),)
        slot = agg.setdefault(path, [0, 0, 0, 0, 0])
        slot[0] += 1
        slot[1] += _attr_int(args, "bytes", "bytes_read")
        slot[2] += _attr_int(args, "records", "scanned")
        slot[3] += _attr_int(args, "ssts", "ssts_read")
        slot[4] += _attr_int(args, "matched")

    for event in events:
        ph = event.get("ph")
        pid = int(_num(event.get("pid", 0)))
        tid = int(_num(event.get("tid", 0)))
        if ph == "M":
            if event.get("name") == "process_name":
                meta_args = event.get("args")
                if isinstance(meta_args, Mapping):
                    process_names[pid] = str(meta_args.get("name", pid))
            continue
        if ph not in ("B", "E", "X"):
            continue
        lane = (pid, tid)
        stack = stacks.setdefault(lane, [])
        raw_args = event.get("args")
        args: dict[str, object] = (
            dict(raw_args) if isinstance(raw_args, Mapping) else {}
        )
        if ph == "B":
            stack.append((str(event.get("name", "?")), args))
        elif ph == "E":
            if not stack:
                unmatched_ends += 1
                continue
            name, begin = stack.pop()
            merged = {**begin, **args}
            if "request" in begin:
                merged["request"] = begin["request"]
            record(lane, name, merged)
        else:  # X: a complete span, nested under the lane's open B
            record(lane, str(event.get("name", "?")), args)

    unclosed = sum(len(stack) for stack in stacks.values())
    frames = tuple(
        ProfileFrame(
            stack=path, count=slot[0], bytes=slot[1], records=slot[2],
            ssts=slot[3], matched=slot[4],
        )
        for path, slot in sorted(agg.items())
    )
    return Profile(frames=frames, unmatched_ends=unmatched_ends,
                   unclosed_spans=unclosed)


def fold_trace_doc(doc: Mapping[str, Any]) -> Profile:
    """Fold a whole ``trace.json`` document (``traceEvents`` list)."""
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document has no traceEvents list")
    return fold(events)


# ------------------------------------------------------------------ diff


@dataclass(frozen=True)
class DiffEntry:
    """One stack path's A-vs-B delta, exact in every dimension."""

    stack: tuple[str, ...]
    count_a: int
    count_b: int
    bytes_a: int
    bytes_b: int

    @property
    def path(self) -> str:
        return ";".join(self.stack)

    @property
    def count_delta(self) -> int:
        return self.count_b - self.count_a

    @property
    def bytes_delta(self) -> int:
        return self.bytes_b - self.bytes_a

    @property
    def changed(self) -> bool:
        return bool(self.count_delta or self.bytes_delta)

    def to_doc(self) -> dict[str, Any]:
        return {
            "stack": list(self.stack),
            "count_a": self.count_a,
            "count_b": self.count_b,
            "count_delta": self.count_delta,
            "bytes_a": self.bytes_a,
            "bytes_b": self.bytes_b,
            "bytes_delta": self.bytes_delta,
        }


@dataclass(frozen=True)
class ProfileDiff:
    """A-vs-B differential profile, sorted by contribution.

    Entries are ordered by descending absolute span-count delta, then
    absolute byte delta, then path — so ``entries[0]`` *is* the blame:
    the span path contributing most to the change.
    """

    entries: tuple[DiffEntry, ...]

    def changed(self) -> tuple[DiffEntry, ...]:
        return tuple(e for e in self.entries if e.changed)

    def top_paths(self, n: int = 3) -> list[tuple[str, int, int]]:
        """``(path, count_delta, bytes_delta)`` for the top offenders."""
        return [
            (e.path, e.count_delta, e.bytes_delta)
            for e in self.changed()[:n]
        ]

    def to_doc(self) -> dict[str, Any]:
        changed = self.changed()
        return {
            "schema": _DIFF_SCHEMA,
            "count_delta": sum(e.count_delta for e in self.entries),
            "bytes_delta": sum(e.bytes_delta for e in self.entries),
            "changed_paths": len(changed),
            "entries": [e.to_doc() for e in changed],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"


def diff_profiles(a: Profile, b: Profile) -> ProfileDiff:
    """Attribute B-minus-A drift to specific span paths."""
    frames_a = {f.stack: f for f in a.frames}
    frames_b = {f.stack: f for f in b.frames}
    entries = []
    for stack in sorted(set(frames_a) | set(frames_b)):
        fa = frames_a.get(stack)
        fb = frames_b.get(stack)
        entries.append(DiffEntry(
            stack=stack,
            count_a=fa.count if fa else 0,
            count_b=fb.count if fb else 0,
            bytes_a=fa.bytes if fa else 0,
            bytes_b=fb.bytes if fb else 0,
        ))
    entries.sort(key=lambda e: (-abs(e.count_delta), -abs(e.bytes_delta),
                                e.stack))
    return ProfileDiff(entries=tuple(entries))

"""Chrome ``trace_event`` emission for CARP pipeline timelines.

The tracer records span (``B``/``E``), complete (``X``) and instant
(``i``) events in the Chrome trace-event JSON format, so a recorded run opens directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  The track layout
maps CARP's structure onto the viewer's process/thread hierarchy:

* **process** = track type (``route``, ``shuffle``, ``renegotiate``,
  ``flush``, ``query``, ``sim``, ``epoch``), and
* **thread** = the rank (or fabric/driver) within that type,

so e.g. every rank's routing activity lines up as one lane per rank
under the ``route`` process.  Timestamps are *virtual* — logical ticks
from :mod:`repro.obs.clock` (or simulated seconds in ``repro.sim``) —
never the host clock.

:class:`Tracer` is the no-op base (used directly when observability is
disabled); :class:`ChromeTracer` records.  :func:`validate_trace_events`
checks a document against the subset of the trace-event schema the
viewers require, and backs the golden-file test in ``tests/obs``.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from pathlib import Path

#: Track handle: a (pid, tid) pair as assigned by :meth:`Tracer.track`.
Track = tuple[int, int]

#: A buffered trace event as plain data: the portable form worker-side
#: tracers (:class:`repro.obs.buffer.BufferingTracer`) ship back to the
#: driver.  Tracks are carried by *name* (``process``/``thread``), not by
#: pid/tid, because id assignment is owned by the merging tracer.
SpanRecord = dict[str, object]

#: Event phases this tracer emits (plus "M" metadata internally).
_PHASES = frozenset({"B", "E", "X", "i", "I", "M"})


class Tracer:
    """No-op tracer: the disabled-observability implementation."""

    __slots__ = ()

    def track(self, process: str, thread: str = "main") -> Track:
        """Resolve (and lazily create) the track for a process/thread."""
        return (0, 0)

    def begin(self, track: Track, name: str, ts: float,
              args: dict[str, object] | None = None) -> None:
        """Open a span on ``track`` at virtual time ``ts``."""
        return None

    def end(self, track: Track, ts: float,
            args: dict[str, object] | None = None) -> None:
        """Close the most recently opened span on ``track``."""
        return None

    def complete(self, track: Track, name: str, ts: float, dur: float,
                 args: dict[str, object] | None = None) -> None:
        """Record a finished span of duration ``dur`` in one event."""
        return None

    def instant(self, track: Track, name: str, ts: float,
                args: dict[str, object] | None = None) -> None:
        """Record a point-in-time marker."""
        return None

    def events(self) -> list[dict[str, object]]:
        """All recorded events in render order."""
        return []

    def drain(self) -> list[SpanRecord]:
        """Buffered span records since the last drain (buffering tracers).

        The base tracer buffers nothing; only
        :class:`repro.obs.buffer.BufferingTracer` returns records here.
        """
        return []

    def merge_events(self, records: Sequence[Mapping[str, object]]) -> None:
        """Replay drained :data:`SpanRecord` data into this tracer.

        The no-op base drops them (disabled observability); the
        recording tracer resolves each record's named track and re-emits
        the event, which is how worker-side spans land in the driver's
        trace.  Callers merge in rank order so the result is
        deterministic regardless of execution interleaving.
        """
        return None

    def to_doc(self) -> dict[str, object]:
        """The complete Chrome trace-event JSON document."""
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def write(self, path: Path | str) -> Path:
        """Persist :meth:`to_doc` to ``path``."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_doc(), indent=1) + "\n")
        return target


#: Alias that makes call sites read naturally when wiring a disabled stack.
NullTracer = Tracer


class ChromeTracer(Tracer):
    """Recording tracer with stable track assignment.

    Events are buffered in memory; :meth:`events` returns them sorted
    by timestamp (stable, metadata first), which keeps the output
    well-ordered even when instrumented code closes spans out of the
    order it opened them across tracks.
    """

    __slots__ = ("_events", "_pids", "_tids", "_open", "_seq",
                 "unmatched_ends")

    def __init__(self) -> None:
        self._events: list[tuple[int, float, int, dict[str, object]]] = []
        self._pids: dict[str, int] = {}
        self._tids: dict[int, list[str]] = {}
        self._open: dict[Track, list[str]] = {}
        self._seq = 0
        #: ``end()`` calls that had no open span to close (instrumentation
        #: bugs surface here instead of corrupting the trace)
        self.unmatched_ends = 0

    # ------------------------------------------------------------ tracks

    def track(self, process: str, thread: str = "main") -> Track:
        pid = self._pids.get(process)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[process] = pid
            self._push_meta("process_name", pid, 0, {"name": process})
        threads = self._tids.setdefault(pid, [])
        if thread in threads:
            return (pid, threads.index(thread) + 1)
        threads.append(thread)
        tid = len(threads)
        self._push_meta("thread_name", pid, tid, {"name": thread})
        return (pid, tid)

    @property
    def track_types(self) -> list[str]:
        """Registered process (track-type) names, in creation order."""
        return sorted(self._pids, key=lambda p: self._pids[p])

    # ------------------------------------------------------------ events

    def _push(self, event: dict[str, object], rank: int, ts: float) -> None:
        self._events.append((rank, ts, self._seq, event))
        self._seq += 1

    def _push_meta(self, name: str, pid: int, tid: int,
                   args: dict[str, object]) -> None:
        self._push({"name": name, "ph": "M", "pid": pid, "tid": tid,
                    "args": args}, 0, 0.0)

    def _event(self, ph: str, track: Track, name: str, ts: float,
               args: dict[str, object] | None) -> dict[str, object]:
        event: dict[str, object] = {
            "name": name, "ph": ph, "ts": float(ts),
            "pid": track[0], "tid": track[1],
        }
        if args:
            event["args"] = dict(args)
        return event

    def begin(self, track: Track, name: str, ts: float,
              args: dict[str, object] | None = None) -> None:
        self._open.setdefault(track, []).append(name)
        self._push(self._event("B", track, name, ts, args), 1, ts)

    def end(self, track: Track, ts: float,
            args: dict[str, object] | None = None) -> None:
        stack = self._open.get(track)
        if not stack:
            self.unmatched_ends += 1
            return
        name = stack.pop()
        self._push(self._event("E", track, name, ts, args), 1, ts)

    def complete(self, track: Track, name: str, ts: float, dur: float,
                 args: dict[str, object] | None = None) -> None:
        event = self._event("X", track, name, ts, args)
        event["dur"] = float(dur)
        self._push(event, 1, ts)

    def instant(self, track: Track, name: str, ts: float,
                args: dict[str, object] | None = None) -> None:
        event = self._event("i", track, name, ts, args)
        event["s"] = "t"  # thread-scoped marker
        self._push(event, 1, ts)

    # ------------------------------------------------------------ merging

    def merge_events(self, records: Sequence[Mapping[str, object]]) -> None:
        for rec in records:
            process, thread = rec.get("process"), rec.get("thread")
            if not isinstance(process, str) or not isinstance(thread, str):
                raise ValueError(f"span record without a named track: {rec!r}")
            track = self.track(process, thread)
            ph = rec.get("ph")
            name = rec.get("name")
            ts = rec.get("ts")
            if not isinstance(ts, (int, float)):
                raise ValueError(f"span record without a numeric ts: {rec!r}")
            raw_args = rec.get("args")
            args: dict[str, object] | None = (
                dict(raw_args) if isinstance(raw_args, Mapping) else None
            )
            if ph == "E":
                self.end(track, float(ts), args)
                continue
            if not isinstance(name, str):
                raise ValueError(f"span record without a name: {rec!r}")
            if ph == "X":
                dur = rec.get("dur")
                if not isinstance(dur, (int, float)):
                    raise ValueError(f"'X' record without a duration: {rec!r}")
                self.complete(track, name, float(ts), float(dur), args)
            elif ph == "B":
                self.begin(track, name, float(ts), args)
            elif ph == "i":
                self.instant(track, name, float(ts), args)
            else:
                raise ValueError(f"span record with unknown phase {ph!r}")

    # ------------------------------------------------------------ export

    @property
    def open_spans(self) -> dict[Track, list[str]]:
        """Spans begun but not yet ended, per track (for diagnostics)."""
        return {t: list(s) for t, s in self._open.items() if s}

    def events(self) -> list[dict[str, object]]:
        # metadata (rank 0) first, then by timestamp; the sequence
        # number keeps the sort stable so same-ts B/E pairs and nested
        # spans stay in emission order
        return [e for _, _, _, e in sorted(
            self._events, key=lambda item: (item[0], item[1], item[2])
        )]

    def to_doc(self) -> dict[str, object]:
        return {"traceEvents": self.events(), "displayTimeUnit": "ms"}


def validate_trace_events(doc: object) -> list[str]:
    """Check a document against the Chrome trace-event schema subset.

    Returns a list of human-readable problems; an empty list means the
    document will load in Perfetto / ``chrome://tracing``.  Checked:
    top-level shape, required per-event fields, known phases, numeric
    non-negative timestamps/durations, and balanced ``B``/``E`` pairs
    per track.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["top level must contain a 'traceEvents' array"]
    stacks: dict[tuple[object, object], list[str]] = {}
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: missing integer {field!r}")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: 'ts' must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'dur' must be a non-negative number")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: 'args' must be an object")
        key = (event.get("pid"), event.get("tid"))
        if ph == "B":
            stacks.setdefault(key, []).append(str(event.get("name")))
        elif ph == "E":
            stack = stacks.get(key)
            if not stack:
                problems.append(f"{where}: 'E' with no open span on {key}")
            else:
                stack.pop()
    for key, stack in stacks.items():
        if stack:
            problems.append(f"unclosed span(s) {stack} on track {key}")
    return problems

"""A tracer that buffers span records as plain data for later merging.

:class:`BufferingTracer` is the rank-local recording tracer: instead
of assigning Chrome pid/tid pairs, it remembers each track's *names*
and buffers every event as a plain-data
:data:`~repro.obs.tracer.SpanRecord`.  The driver periodically calls
:meth:`BufferingTracer.drain` and replays the records in rank order
through :meth:`~repro.obs.tracer.Tracer.merge_events` on its own
:class:`~repro.obs.tracer.ChromeTracer` — so one trace document covers
the whole run.

Timestamps remain *virtual*: the owning :class:`~repro.obs.Obs` stack
pairs this tracer with a rank-local
:class:`~repro.obs.clock.VirtualClock` starting at zero, so a rank's
buffered timeline depends only on that rank's own call sequence.
"""

from __future__ import annotations

from repro.obs.tracer import SpanRecord, Tracer, Track


class BufferingTracer(Tracer):
    """Recording tracer that keeps events as portable plain data."""

    __slots__ = ("_records", "_tracks", "_open", "unmatched_ends")

    def __init__(self) -> None:
        #: Buffered records since the last :meth:`drain`.
        self._records: list[SpanRecord] = []
        #: Track handle -> (process, thread) names, in creation order.
        self._tracks: list[tuple[str, str]] = []
        #: Open-span name stacks per track, so ``E`` records carry the
        #: span name (the merging tracer re-derives its own stacks, but
        #: named records survive a drain boundary mid-span).
        self._open: dict[Track, list[str]] = {}
        #: ``end()`` calls with no open span (instrumentation bugs).
        self.unmatched_ends = 0

    # ------------------------------------------------------------ tracks

    def track(self, process: str, thread: str = "main") -> Track:
        names = (process, thread)
        try:
            return (self._tracks.index(names), 0)
        except ValueError:
            self._tracks.append(names)
            return (len(self._tracks) - 1, 0)

    def _names(self, track: Track) -> tuple[str, str]:
        return self._tracks[track[0]]

    def _record(self, ph: str, track: Track, name: str, ts: float,
                args: dict[str, object] | None) -> SpanRecord:
        process, thread = self._names(track)
        rec: SpanRecord = {
            "ph": ph, "process": process, "thread": thread,
            "name": name, "ts": float(ts),
        }
        if args:
            rec["args"] = dict(args)
        return rec

    # ------------------------------------------------------------ events

    def begin(self, track: Track, name: str, ts: float,
              args: dict[str, object] | None = None) -> None:
        self._open.setdefault(track, []).append(name)
        self._records.append(self._record("B", track, name, ts, args))

    def end(self, track: Track, ts: float,
            args: dict[str, object] | None = None) -> None:
        stack = self._open.get(track)
        if not stack:
            self.unmatched_ends += 1
            return
        name = stack.pop()
        self._records.append(self._record("E", track, name, ts, args))

    def complete(self, track: Track, name: str, ts: float, dur: float,
                 args: dict[str, object] | None = None) -> None:
        rec = self._record("X", track, name, ts, args)
        rec["dur"] = float(dur)
        self._records.append(rec)

    def instant(self, track: Track, name: str, ts: float,
                args: dict[str, object] | None = None) -> None:
        self._records.append(self._record("i", track, name, ts, args))

    # ------------------------------------------------------------- drain

    def drain(self) -> list[SpanRecord]:
        records, self._records = self._records, []
        return records

    def events(self) -> list[dict[str, object]]:
        """Undrained records, for inspection; does not consume them."""
        return [dict(r) for r in self._records]

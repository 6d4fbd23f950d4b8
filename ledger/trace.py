"""Wall-clock spans measured from outside the program.

``Tracer.install`` wraps a fixed table of the program's public
callables (:data:`SPANS`, :data:`COUNTERS`) and ``uninstall`` puts the
originals back; nothing under ``src/`` is edited.  A callable that
other modules import by value (``core/carp.py`` does
``from repro.shuffle.router import range_route``) is replaced in every
``repro`` module namespace that holds it, found by identity.

Each wrapper records one span: name, ``perf_counter_ns`` start and
end, the enclosing span on the same thread, and the request or
repetition the workload tagged the thread with.  Spans stay in memory
until the run ends.  A span's self time is its duration minus its
children's; children of one thread run one after another inside their
parent, so that is a plain subtraction.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: (module, attribute path, span name, positions of call arguments kept
#: as the span's tag).  Span names follow ``carp-profile``'s vocabulary
#: where it has a word for the same step (route, deliver, probe, decode,
#: query ...), so a folded wall profile reads next to a virtual-time one.
SPANS: tuple[tuple[str, str, str, tuple[int, ...]], ...] = (
    ("repro.api", "Session.ingest_epoch", "ingest", ()),
    ("repro.api", "Session.query", "session_query", ()),
    ("repro.api", "Session.serve", "serve_start", ()),
    ("repro.core.carp", "CarpRun.ingest_epoch", "epoch", ()),
    ("repro.core.renegotiation", "negotiate", "renegotiate", ()),
    ("repro.core.rank", "CarpRankState.compute_pivots", "pivots", ()),
    ("repro.core.rank", "CarpRankState.observe_sent", "observe", ()),
    ("repro.core.oob", "OOBBuffer.add", "oob_add", ()),
    ("repro.core.oob", "OOBBuffer.drain", "oob_drain", ()),
    ("repro.shuffle.router", "range_route", "route", ()),
    ("repro.shuffle.router", "split_by_destination", "split", ()),
    ("repro.shuffle.flow", "DelayQueue.send", "send", ()),
    ("repro.shuffle.flow", "DelayQueue.tick", "tick", ()),
    ("repro.shuffle.flow", "DelayQueue.drain", "drain", ()),
    ("repro.storage.koidb", "KoiDB.ingest", "deliver", ()),
    ("repro.storage.sstable", "build_sstable", "sst_build", ()),
    ("repro.storage.log", "LogWriter.append_batch", "log_append", ()),
    ("repro.storage.koidb", "KoiDB.finish_epoch", "finish_epoch", ()),
    ("repro.storage.log", "LogWriter.flush_epoch", "flush_epoch", ()),
    ("repro.storage.snapshot", "pin_snapshot", "pin_snapshot", ()),
    ("repro.query.engine", "PartitionedStore.__init__", "open", ()),
    ("repro.query.engine", "PartitionedStore.overlapping_entries", "select", ()),
    # tagged (lo, hi): ties an engine execution to the client request
    ("repro.query.engine", "PartitionedStore.query", "query", (2, 3)),
    ("repro.exec.work", "probe_entries", "probe", ()),
    ("repro.storage.log", "LogReader.read_sst", "decode", ()),
    ("repro.storage.log", "LogReader.read_sst_keys", "decode_keys", ()),
    ("repro.core.records", "range_mask", "mask", ()),
    ("repro.query.request", "response_from_result", "response", ()),
)

#: Calls that are only counted (a span each would cost more than the
#: call): (module, attribute path, counter name).  Counts are kept per
#: root span, so a reader thread's batches are not charged to ingest.
COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.records", "RecordBatch.__post_init__", "batch_constructions"),
    ("repro.core.records", "RecordBatch.select", "select_calls"),
    ("repro.exec.api", "SerialExecutor.submit", "tasks_submitted"),
)


class _ThreadState:
    __slots__ = ("rows", "stack", "tag", "counts", "thread")

    def __init__(self, thread: str) -> None:
        # row: [name index, start ns, end ns, parent row or -1, tag]
        self.rows: list[list[Any]] = []
        self.stack: list[int] = []
        self.tag: Any = None
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.thread = thread


class NullTracer:
    """Stands in when wrappers are off; tagging costs one no-op call."""

    def tag(self, tag: Any) -> None:
        pass


NULL_TRACER = NullTracer()


def _resolve(module: str, path: str) -> tuple[Any, str, Any]:
    """(owner, attribute, callable) for ``module:Class.method`` or ``module:function``."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Installs the wrappers, collects spans, folds them."""

    def __init__(self) -> None:
        self.names: list[str] = [name for _m, _p, name, _t in SPANS]
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []  # (owner, attr, original)
        self.t0_ns = 0

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.t0_ns = time.perf_counter_ns()
        try:
            for idx, (module, path, _name, tag_args) in enumerate(SPANS):
                owner, attr, original = _resolve(module, path)
                self._replace(owner, attr, original, self._span_wrapper(original, idx, tag_args))
            for module, path, counter in COUNTERS:
                owner, attr, original = _resolve(module, path)
                self._replace(owner, attr, original, self._count_wrapper(original, counter))
        except BaseException:
            self.uninstall()
            raise

    def _replace(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))
        if isinstance(owner, type):
            return
        # a module-level function: also swap every by-value import of it
        for modname, mod in list(sys.modules.items()):
            if mod is None or mod is owner or not modname.startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._patched.append((mod, name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # ----------------------------------------------------------- wrappers

    def _state(self) -> _ThreadState:
        state = _ThreadState(threading.current_thread().name)
        self._local.state = state
        with self._lock:
            self._states.append(state)
        return state

    def tag(self, tag: Any) -> None:
        """Tag the calling thread's next spans with a request/repetition id."""
        try:
            state = self._local.state
        except AttributeError:
            state = self._state()
        state.tag = tag

    def _span_wrapper(
        self, fn: Callable[..., Any], name_idx: int, tag_args: tuple[int, ...]
    ) -> Callable[..., Any]:
        local = self._local
        new_state = self._state
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            rows = state.rows
            stack = state.stack
            tag = tuple(args[i] for i in tag_args) if tag_args else state.tag
            row = [name_idx, 0, 0, stack[-1] if stack else -1, tag]
            stack.append(len(rows))
            rows.append(row)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn: Callable[..., Any], counter: str) -> Callable[..., Any]:
        local = self._local
        new_state = self._state

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            root = state.rows[state.stack[0]][0] if state.stack else -1
            state.counts[(counter, root)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -------------------------------------------------------------- fold

    def fold(self) -> "Folded":
        return Folded(self.names, self._states, self.t0_ns)


class Folded:
    """Spans of every thread with self times, paths and per-name totals."""

    def __init__(self, names: list[str], states: list[_ThreadState], t0_ns: int) -> None:
        self.names = names
        self.t0_ns = t0_ns
        # flat rows: [name idx, start, end, parent (global) or -1, tag, thread idx]
        self.rows: list[list[Any]] = []
        self.threads: list[str] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        for tidx, state in enumerate(states):
            base = len(self.rows)
            self.threads.append(state.thread)
            for name_idx, start, end, parent, tag in state.rows:
                if end == 0:  # still open when the trace was folded
                    continue
                self.rows.append(
                    [name_idx, start, end, parent + base if parent >= 0 else -1, tag, tidx]
                )
            for (counter, root), n in state.counts.items():
                self.counts[(counter, names[root] if root >= 0 else "")] += n
        n = len(self.rows)
        self.self_ns = [row[2] - row[1] for row in self.rows]
        for row in self.rows:
            if row[3] >= 0:
                self.self_ns[row[3]] -= row[2] - row[1]
        # a child is appended after its parent, so one reverse pass sums subtrees
        self.subtree_self_ns = list(self.self_ns)
        for i in range(n - 1, -1, -1):
            parent = self.rows[i][3]
            if parent >= 0:
                self.subtree_self_ns[parent] += self.subtree_self_ns[i]
        self.paths: list[str] = []
        # span name -> [calls, total ns, self ns]
        self._by_name: dict[str, list[int]] = {name: [0, 0, 0] for name in names}
        for row, self_ns in zip(self.rows, self.self_ns):
            name = names[row[0]]
            self.paths.append(name if row[3] < 0 else f"{self.paths[row[3]]};{name}")
            totals = self._by_name[name]
            totals[0] += 1
            totals[1] += row[2] - row[1]
            totals[2] += self_ns

    def total_ns(self, *span_names: str) -> int:
        return sum(self._by_name[n][1] for n in span_names)

    def self_total_ns(self, *span_names: str) -> int:
        return sum(self._by_name[n][2] for n in span_names)

    def calls(self, *span_names: str) -> int:
        return sum(self._by_name[n][0] for n in span_names)

    def count(self, counter: str, root: str | None = None) -> int:
        return sum(
            n for (name, under), n in self.counts.items()
            if name == counter and (root is None or under == root)
        )

    def spans(self, span_name: str) -> list[tuple[int, int, Any]]:
        """(start, end, tag) of every span called ``span_name``."""
        idx = self.names.index(span_name)
        return [(r[1], r[2], r[4]) for r in self.rows if r[0] == idx]

    def coverage(self) -> float:
        """Smallest share of a root span that its subtree's self times
        (named children + own self) account for; 1.0 unless a child ran
        outside its parent.  1.0 as well when nothing was traced."""
        shares = [
            self.subtree_self_ns[i] / (row[2] - row[1])
            for i, row in enumerate(self.rows)
            if row[3] < 0 and row[2] > row[1]
        ]
        return min(shares, default=1.0)

    def folded_lines(self) -> list[str]:
        """``path self_ns`` per distinct call path (flame-graph input)."""
        total: dict[str, int] = defaultdict(int)
        for path, self_ns in zip(self.paths, self.self_ns):
            total[path] += self_ns
        return [f"{path} {ns}" for path, ns in sorted(total.items())]

    def write(self, out_dir: Path, workload: str) -> tuple[Path, Path]:
        out_dir.mkdir(parents=True, exist_ok=True)
        json_path = out_dir / f"trace_{workload}.json"
        folded_path = out_dir / f"trace_{workload}.folded"
        doc = {
            "schema": "ledger-trace-v1",
            "workload": workload,
            "clock": "perf_counter_ns, relative to tracer install",
            "names": self.names,
            "threads": self.threads,
            "columns": ["name", "start_ns", "end_ns", "parent", "tag", "thread"],
            "spans": [
                [r[0], r[1] - self.t0_ns, r[2] - self.t0_ns, r[3], r[4], r[5]]
                for r in self.rows
            ],
            "counts": {f"{name}@{root or '-'}": n for (name, root), n in sorted(self.counts.items())},
        }
        json_path.write_text(json.dumps(doc, separators=(",", ":"), default=str))
        folded_path.write_text("\n".join(self.folded_lines()) + "\n")
        return json_path, folded_path

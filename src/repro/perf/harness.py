"""Run perf workloads, persist baselines, and gate on any change.

:func:`run_workload` executes one :class:`WorkloadSpec` in a scratch
directory under a recording observability stack and summarizes it into
a :class:`WorkloadRun` — :class:`Metric` values plus a folded
count-attribution :class:`~repro.obs.profile.Profile` whose totals are
reconciled against the run's metrics counters (the reconciliation
error count rides along as a metric, so any attribution drift trips
the gate).  :func:`write_baseline` persists the metrics through
:func:`repro.bench.results.emit` (rows + units + git SHA) into
``results/baselines/<name>.json`` and the profile beside them under
``results/baselines/profiles/``; :func:`compare_workload` re-runs the
workload, diffs fresh metrics against the committed baseline and
checks the fresh profile byte for byte against the committed one.

Every row is either an exact workload output (bytes, records, counts,
digests) or an output of the ``IOModel`` cost model (modeled query and
serve latency), so every row is deterministic and compared by
equality: a fresh value is ``ok`` when it equals the baseline,
``missing`` when the run no longer produces the row, and ``changed``
otherwise — both non-``ok`` outcomes block.  The profile gets the same
three verdicts, from its ``.json`` and ``.folded`` renderings.  This
package never reads the host clock (rule O501 enforces it); wall time
is measured in one place, the top-level ``ledger/``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Any

from repro.bench.results import emit, results_dir
from repro.bench.tables import render_table
from repro.core.carp import CarpRun
from repro.obs import Obs, TelemetryStream
from repro.obs.profile import Profile, fold
from repro.perf.workloads import WorkloadSpec
from repro.query.engine import PartitionedStore
from repro.storage.compactor import compact_all_epochs
from repro.storage.log import list_logs
from repro.traces.vpic import VpicTraceSpec, generate_timestep


@dataclass(frozen=True)
class Metric:
    """One measured value of a workload run."""

    name: str
    value: float
    unit: str

    def to_row(self) -> dict[str, Any]:
        return {"metric": self.name, "value": self.value, "unit": self.unit}


# ---------------------------------------------------------------- running

#: What every runner hands back: metric rows plus the raw material of
#: the run's count-attribution profile — trace events and the metrics
#: snapshot they must reconcile against (both in archived-artifact
#: form, so the fold is exactly what ``carp profile record`` would do).
_RunnerResult = tuple[list[Metric], list[dict[str, Any]], dict[str, Any]]


def _trace_spec(spec: WorkloadSpec) -> VpicTraceSpec:
    return VpicTraceSpec(
        nranks=spec.nranks,
        particles_per_rank=spec.records_per_rank,
        value_size=8,
        seed=spec.seed,
    )


def _ingest(spec: WorkloadSpec, out_dir: Path, obs: Obs) -> int:
    """Ingest every epoch; return the total renegotiation count."""
    trace = _trace_spec(spec)
    renegotiations = 0
    with CarpRun(spec.nranks, out_dir, spec.options(), obs=obs) as run:
        for epoch in range(spec.epochs):
            stats = run.ingest_epoch(epoch, generate_timestep(trace, epoch))
            renegotiations += stats.renegotiations
    return renegotiations


def _run_ingest(spec: WorkloadSpec, scratch: Path) -> _RunnerResult:
    obs = Obs.recording()
    renegotiations = _ingest(spec, scratch / "db", obs)
    counters = obs.metrics
    return [
        Metric("records_ingested",
               counters.counter_value("carp.records_ingested"), "records"),
        Metric("koidb_bytes_written",
               counters.counter_value("koidb.bytes_written"), "B"),
        Metric("ssts_written",
               counters.counter_value("koidb.ssts_written"), "ssts"),
        # a work count: one per storage call, so per-message delivery
        # (or any other extra call per batch) changes this row
        Metric("koidb_ingest_calls",
               counters.counter_value("koidb.ingest_calls"), "calls"),
        # a work count: one per shuffle message, so routing that sends
        # more than one message per (pass, destination) changes this row
        Metric("shuffle_messages",
               counters.counter_value("carp.shuffle_messages"), "messages"),
        Metric("renegotiations", renegotiations, "renegotiations"),
        # work counts: where the memtables flushed, and how many
        # delivered records took the stray path rather than the
        # owned-range fast path
        Metric("memtable_flushes",
               counters.counter_value("koidb.memtable_flushes"), "flushes"),
        Metric("stray_records",
               counters.counter_value("koidb.stray_records"), "records"),
    ], obs.tracer.events(), obs.metrics.snapshot()


def _run_query(spec: WorkloadSpec, scratch: Path) -> _RunnerResult:
    db_dir = scratch / "db"
    _ingest(spec, db_dir, Obs.null())
    # gated values come from the returned QueryCost objects; the
    # recording stack only adds the probe/query span timeline and the
    # query.* counters the folded profile reconciles against
    obs = Obs.recording()
    latency = 0.0
    bytes_read = 0
    matched = 0
    requests = 0
    ssts_read = 0
    scanned = 0
    key_chunks = 0
    key_chunks_skipped = 0
    with PartitionedStore(db_dir) as store:
        heads = store.heads_decoded
        for epoch in store.epochs():
            lo, hi = store.key_range(epoch)
            width = (hi - lo) / max(spec.queries * 4, 1)
            for q in range(spec.queries):
                qlo = lo + (hi - lo) * q / max(spec.queries, 1)
                res = store.query(epoch, qlo, qlo + width, obs=obs)
                latency += res.cost.latency
                bytes_read += res.cost.bytes_read
                matched += res.cost.records_matched
                requests += res.cost.read_requests
                ssts_read += res.cost.ssts_read
                scanned += res.cost.records_scanned
                key_chunks += res.cost.key_chunks_read
                key_chunks_skipped += res.cost.key_chunks_skipped
        verified = store.key_chunks_verified
        values_verified = store.value_chunks_verified
    return [
        Metric("query_latency_modeled", latency, "s"),
        Metric("query_bytes_read", bytes_read, "B"),
        Metric("query_records_matched", matched, "records"),
        Metric("query_read_requests", requests, "requests"),
        # work counts: SSTs probed and records their keys held, so a
        # probe that touches more SSTs or records changes these rows
        Metric("query_ssts_read", ssts_read, "ssts"),
        Metric("query_records_scanned", scanned, "records"),
        # work counts: key chunks of the SSTs read that were verified
        # and searched, and those zone-map pruning left unread, so a
        # probe that searches more of its SSTs' keys changes both rows
        Metric("query_key_chunks_read", key_chunks, "chunks"),
        Metric("query_key_chunks_skipped", key_chunks_skipped, "chunks"),
        # a work count: SST heads verified and decoded by the store's
        # open, so a reader that decodes a head more than once per open
        # (or re-reads it per probe) changes this row or the byte rows
        Metric("query_heads_decoded", heads, "heads"),
        # a state count: key chunks the store's readers hold verified,
        # at most query_key_chunks_read, so a reader that stops keeping
        # its verified keys (or keeps one chunk twice) changes this row
        Metric("query_key_chunks_verified", verified, "chunks"),
        # a state count: value chunks whose rids the store's readers
        # hold verified, so a reader that stops keeping its verified
        # rids (or fills them on a keys-only read) changes this row
        Metric("query_value_chunks_verified", values_verified, "chunks"),
    ], obs.tracer.events(), obs.metrics.snapshot()


def _run_compact(spec: WorkloadSpec, scratch: Path) -> _RunnerResult:
    src = scratch / "db"
    dst = scratch / "compacted"
    _ingest(spec, src, Obs.null())
    obs = Obs.recording()
    epoch_dirs = compact_all_epochs(src, dst, spec.sst_records, obs=obs)
    out_bytes = sum(
        p.stat().st_size for d in epoch_dirs for p in list_logs(d)
    )
    # modeled full-scan latency over the compacted layout: the number
    # compaction exists to improve, priced by the IOModel
    scan_latency = 0.0
    for directory in epoch_dirs:
        with PartitionedStore(directory) as store:
            for epoch in store.epochs():
                scan_latency += store.scan(epoch).cost.latency
    return [
        Metric("compacted_scan_latency_modeled", scan_latency, "s"),
        Metric("compacted_bytes", out_bytes, "B"),
        Metric("epochs_compacted", len(epoch_dirs), "epochs"),
    ], obs.tracer.events(), obs.metrics.snapshot()


def _run_obs_overhead(spec: WorkloadSpec, scratch: Path) -> _RunnerResult:
    """Prove the disabled-observability path stays zero-cost.

    Runs the same ingest twice — once under the shared ``NULL_OBS``
    stack, once fully recording with a streaming telemetry sink — and
    gates on zero side effects from the null run: no
    instruments registered, no virtual time accumulated, no telemetry
    lines written.
    """
    null_obs = Obs.null()
    _ingest(spec, scratch / "db-null", null_obs)

    null_snapshot = null_obs.metrics.snapshot()
    null_side_effects = (
        sum(len(section) for section in null_snapshot.values()
            if isinstance(section, dict))
        + (0 if null_obs.clock.now() == 0.0 else 1)
        + null_obs.telemetry.lines_written
        + (1 if null_obs.telemetry.enabled else 0)
        + (1 if null_obs.enabled else 0)
    )

    obs = Obs.recording()
    telemetry_path = scratch / "telemetry.jsonl"
    with telemetry_path.open("w", encoding="utf-8") as sink:
        obs.telemetry = TelemetryStream(
            obs.metrics, obs.clock, sink,
            record_bytes=4 + spec.options().value_size,
        )
        _ingest(spec, scratch / "db-rec", obs)
    recording_snapshot = obs.metrics.snapshot()
    recording_instruments = sum(
        len(section) for section in recording_snapshot.values()
        if isinstance(section, dict)
    )
    return [
        Metric("null_side_effects", null_side_effects, "effects"),
        Metric("telemetry_lines", obs.telemetry.lines_written, "lines"),
        Metric("recording_instruments", recording_instruments,
               "instruments"),
    ], obs.tracer.events(), recording_snapshot


def _run_serve(spec: WorkloadSpec, scratch: Path) -> _RunnerResult:
    """The serving plane under concurrent ingest (``carp serve``).

    Count rows pin the admission/caching behaviour *and* the served
    bytes (an order-independent payload digest); the latency rows pin
    the modeled served-latency distribution, p99 included — the number
    the SLO rule in ``configs/health_default.json`` watches live.  The
    profile is folded from the artifacts the run archived under its
    scratch directory — the literal files a CI run would upload.
    """
    from repro.perf.serve import run_serve_workload

    out_dir = scratch / "obs"
    report = run_serve_workload(spec, scratch, out_dir=out_dir)
    events_doc = json.loads((out_dir / "trace.json").read_text())
    events = events_doc.get("traceEvents")
    assert isinstance(events, list)
    snapshot = json.loads((out_dir / "metrics.json").read_text())
    assert isinstance(snapshot, dict)
    return [
        Metric("serve_latency_p50", report.latency_p50, "s"),
        Metric("serve_latency_p95", report.latency_p95, "s"),
        Metric("serve_latency_p99", report.latency_p99, "s"),
        Metric("serve_latency_mean", report.latency_mean, "s"),
        Metric("serve_requests", report.requests, "requests"),
        Metric("serve_ok", report.ok, "responses"),
        Metric("serve_deadline_exceeded", report.deadline_exceeded,
               "responses"),
        Metric("serve_rejected", report.rejected, "responses"),
        Metric("serve_cache_hits", report.cache_hits, "hits"),
        Metric("serve_cache_misses", report.cache_misses, "misses"),
        Metric("serve_invalidations", report.invalidations, "epochs"),
        Metric("serve_payload_digest",
               float(int(report.payload_digest[:12], 16)), "id"),
        Metric("serve_evict_engine_queries", report.evict_engine_queries,
               "queries"),
        Metric("serve_evict_refill_bytes", report.evict_refill_bytes,
               "bytes"),
        Metric("serve_evict_contained_hits", report.evict_contained_hits,
               "hits"),
    ], events, snapshot


_RUNNERS = {
    "ingest": _run_ingest,
    "query": _run_query,
    "compact": _run_compact,
    "obs-overhead": _run_obs_overhead,
    "serve": _run_serve,
}


@dataclass(frozen=True)
class WorkloadRun:
    """One workload execution: metric rows + its folded cost profile.

    ``profile_reconcile_errors`` is appended to the metrics as a row,
    so an attribution drift (profile totals no longer matching the
    metrics counters) fails the baseline gate like any other change.
    """

    metrics: list[Metric]
    profile: Profile
    reconcile_errors: tuple[str, ...]


def run_workload(spec: WorkloadSpec) -> WorkloadRun:
    """Execute one workload in a scratch directory; fold its profile."""
    runner = _RUNNERS.get(spec.kind)
    if runner is None:
        raise ValueError(f"unknown workload kind {spec.kind!r}")
    with TemporaryDirectory(prefix=f"carp-perf-{spec.name}-") as tmp:
        metrics, events, snapshot = runner(spec, Path(tmp))
    profile = fold(events)
    errors = profile.reconcile(snapshot)
    metrics.append(Metric("profile_reconcile_errors", float(len(errors)),
                          "errors"))
    return WorkloadRun(metrics=metrics, profile=profile,
                       reconcile_errors=tuple(errors))


# --------------------------------------------------------------- baselines


def baseline_dir() -> Path:
    path = results_dir() / "baselines"
    path.mkdir(parents=True, exist_ok=True)
    return path


def baseline_path(name: str) -> Path:
    return baseline_dir() / f"{name}.json"


def profile_baseline_dir() -> Path:
    path = baseline_dir() / "profiles"
    path.mkdir(parents=True, exist_ok=True)
    return path


def profile_baseline_path(name: str) -> Path:
    return profile_baseline_dir() / f"{name}.json"


def write_baseline(spec: WorkloadSpec, run: WorkloadRun) -> Path:
    """Persist a workload run as its committed baseline.

    Metrics go through :func:`emit` into
    ``results/baselines/<name>.json``; the folded profile is committed
    beside them as ``results/baselines/profiles/<name>.json`` (+ the
    collapsed-stack ``.folded`` rendering) — the reference that
    ``carp perf compare`` diffs against when a gate trips.
    """
    baseline_dir()  # ensure results/baselines/ exists before emit()
    metrics = run.metrics
    text = render_table(
        ("metric", "value", "unit"),
        [(m.name, f"{m.value:.9g}", m.unit) for m in metrics],
        title=f"carp-perf baseline: {spec.name}",
    )
    emit(
        f"baselines/{spec.name}",
        text,
        rows=[m.to_row() for m in metrics],
        units={m.name: m.unit for m in metrics},
    )
    profile_dir = profile_baseline_dir()
    (profile_dir / f"{spec.name}.json").write_text(run.profile.to_json())
    (profile_dir / f"{spec.name}.folded").write_text(run.profile.to_folded())
    return baseline_path(spec.name)


def load_baseline(name: str) -> dict[str, Any] | None:
    """The committed baseline document for a workload, if present."""
    path = baseline_path(name)
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    assert isinstance(doc, dict)
    return doc


def load_profile_baseline(name: str) -> Profile | None:
    """The committed baseline profile for a workload, if present."""
    path = profile_baseline_path(name)
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    assert isinstance(doc, dict)
    return Profile.from_doc(doc)


# -------------------------------------------------------------- comparing


@dataclass(frozen=True)
class MetricComparison:
    """One metric's baseline-vs-current verdict."""

    metric: str
    unit: str
    baseline: float | None
    current: float | None
    #: ``ok`` | ``changed`` | ``missing``
    status: str

    @property
    def blocking(self) -> bool:
        return self.status != "ok"

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "unit": self.unit,
            "baseline": self.baseline,
            "current": self.current,
            "status": self.status,
            "blocking": self.blocking,
        }


@dataclass(frozen=True)
class WorkloadComparison:
    """A whole workload's comparison against its baseline."""

    workload: str
    baseline_sha: str | None
    metrics: tuple[MetricComparison, ...]
    #: the fresh run's folded profile — what ``carp perf compare``
    #: diffs against the committed baseline profile when this
    #: comparison blocks, to name the changed span paths
    current_profile: Profile
    #: the fresh profile against the committed ``.json`` and
    #: ``.folded``: ``ok`` (both byte-identical) | ``changed`` |
    #: ``missing`` (either file absent)
    profile_status: str

    @property
    def blocking(self) -> bool:
        return (self.profile_status != "ok"
                or any(m.blocking for m in self.metrics))

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "baseline_sha": self.baseline_sha,
            "blocking": self.blocking,
            "metrics": [m.to_dict() for m in self.metrics],
            "profile": self.profile_status,
        }


def _compare_metric(row: dict[str, Any], current: Metric | None) -> MetricComparison:
    base = float(row["value"])
    if current is None:
        status = "missing"
    else:
        status = "ok" if current.value == base else "changed"
    return MetricComparison(
        str(row["metric"]), str(row.get("unit", "")), base,
        None if current is None else current.value, status,
    )


def _compare_profile(name: str, profile: Profile) -> str:
    """The verdict on a fresh profile's two committed renderings."""
    path = profile_baseline_path(name)
    folded = path.with_suffix(".folded")
    if not (path.is_file() and folded.is_file()):
        return "missing"
    same = (path.read_bytes() == profile.to_json().encode()
            and folded.read_bytes() == profile.to_folded().encode())
    return "ok" if same else "changed"


def compare_workload(
    spec: WorkloadSpec, baseline: dict[str, Any]
) -> WorkloadComparison:
    """Re-run one workload and diff it against its baseline document."""
    run = run_workload(spec)
    fresh = {m.name: m for m in run.metrics}
    rows = baseline.get("rows", [])
    assert isinstance(rows, list)
    comparisons = [
        _compare_metric(row, fresh.get(str(row["metric"]))) for row in rows
    ]
    seen = {str(row["metric"]) for row in rows}
    for name, metric in fresh.items():
        if name not in seen:
            # a new metric has no baseline; surface it without blocking
            comparisons.append(MetricComparison(
                name, metric.unit, None, metric.value, "ok",
            ))
    sha = baseline.get("git_sha")
    return WorkloadComparison(
        workload=spec.name,
        baseline_sha=str(sha) if isinstance(sha, str) else None,
        metrics=tuple(comparisons),
        current_profile=run.profile,
        profile_status=_compare_profile(spec.name, run.profile),
    )

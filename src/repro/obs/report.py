"""Human-readable reports over a recorded run.

Turns the three artifacts ``carp trace`` produces — the run manifest
(``carp_run.json`` shape), the metrics snapshot, and the trace-event
list — into a per-epoch timeline/summary a terminal can show.  The
functions here take plain dicts/lists, not live run objects, so the
module introduces no import cycle with the instrumented packages.

Trace events are turned into spans in one place only,
:func:`repro.obs.profile.fold`; :func:`phase_table` and
:func:`frame_table` render its :class:`~repro.obs.profile.Profile` for
both ``carp trace`` and ``carp profile record``.  They show counts
(spans, bytes, records, SSTs, matches), never trace timestamps.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.bench.tables import fmt_bytes, fmt_pct, render_table
from repro.obs.profile import Profile, fold


def _trigger_timeline(epoch: dict[str, object]) -> str:
    triggers = epoch.get("triggers")
    if not isinstance(triggers, list) or not triggers:
        return "-"
    parts = []
    for t in triggers:
        if isinstance(t, dict):
            parts.append(f"r{t.get('round')}:{t.get('reason')}")
    return " ".join(parts) if parts else "-"


def epoch_table(epochs: list[dict[str, object]]) -> str:
    """Per-epoch summary table with the renegotiation timeline."""
    headers = ["epoch", "records", "rounds", "renegs", "stray frac",
               "load stddev", "trigger timeline (round:reason)"]
    rows = []
    for e in epochs:
        stray = e.get("stray_fraction")
        stddev = e.get("load_stddev")
        rows.append([
            e.get("epoch"),
            e.get("records"),
            e.get("rounds"),
            e.get("renegotiations"),
            fmt_pct(float(stray)) if isinstance(stray, (int, float)) else "-",
            f"{float(stddev):.3f}" if isinstance(stddev, (int, float)) else "-",
            _trigger_timeline(e),
        ])
    return render_table(headers, rows)


def metrics_table(snapshot: Mapping[str, Any]) -> str:
    """Counter/gauge totals and histogram summaries of a
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`."""
    rows: list[list[object]] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        shown = fmt_bytes(float(value)) if "bytes" in name else f"{value:g}"
        rows.append(["counter", name, shown])
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        rows.append(["gauge", name, f"{float(value):.3f}"])
    for name, h in sorted(snapshot.get("histograms", {}).items()):
        summary = f"n={h['count']} mean={float(h['mean']):.4g}"
        # an empty histogram has no quantiles and no max
        quantiles = " ".join(
            f"{q}<={float(h[q]):.4g}"
            for q in ("p50", "p95", "p99") if h[q] is not None
        )
        if quantiles:
            # bucket-upper-bound approximations (Histogram.quantile)
            summary += f" {quantiles}"
        if h["max"] is not None:
            summary += f" max={float(h['max']):.4g}"
        rows.append(["histogram", name, summary])
    return render_table(["kind", "metric", "value"], rows)


def phase_table(profile: Profile) -> str:
    """Spans and frames folded under each phase of ``profile``."""
    rollup = profile.phases()
    return render_table(
        ("phase", "spans", "frames"),
        [
            (phase, row["spans"], row["frames"])
            for phase, row in sorted(rollup.items())
        ],
        title="spans by phase",
    )


def frame_table(profile: Profile, top: int | None = None) -> str:
    """``profile``'s frames by span count, the first ``top`` of them."""
    frames = sorted(profile.frames,
                    key=lambda f: (-f.count, f.stack))[:top]
    return render_table(
        ("stack", "spans", "bytes", "records", "ssts", "matched"),
        [
            (f.path, f.count, f.bytes, f.records, f.ssts, f.matched)
            for f in frames
        ],
        title=("frames by span count" if top is None
               else f"top {len(frames)} frames by span count"),
    )


def render_report(run_doc: dict[str, object], snapshot: dict[str, object],
                  events: list[dict[str, object]]) -> str:
    """The full ``carp trace`` terminal report."""
    epochs = run_doc.get("epochs")
    waf = run_doc.get("write_amplification")
    waf_s = f"{float(waf):.3f}x" if isinstance(waf, (int, float)) else "-"
    sections = [
        f"CARP run: {run_doc.get('nranks')} ranks, "
        f"{run_doc.get('nreceivers')} receivers, "
        f"{len(epochs) if isinstance(epochs, list) else 0} epochs, "
        f"write amplification {waf_s}",
        "",
        "Per-epoch timeline",
        epoch_table(epochs if isinstance(epochs, list) else []),
        "",
        phase_table(fold(events)),
        "",
        "Metrics snapshot",
        metrics_table(snapshot),
    ]
    return "\n".join(sections)

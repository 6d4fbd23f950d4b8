"""Human-readable reports over a recorded run.

Turns the three artifacts ``carp trace`` produces — the run manifest
(``carp_run.json`` shape), the metrics snapshot, and the trace-event
list — into a per-epoch timeline/summary a terminal can show.  The
functions here take plain dicts/lists, not live run objects, so the
module renders archived artifacts as readily as a just-finished run
and introduces no import cycle with the instrumented packages.

Trace events are turned into spans in one place only,
:func:`repro.obs.profile.fold`; :func:`phase_table` and
:func:`frame_table` render its :class:`~repro.obs.profile.Profile` for
both ``carp trace`` and ``carp profile record``.  They show counts
(spans, bytes, records, SSTs, matches), never trace timestamps.
"""

from __future__ import annotations

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


def normalize_snapshot(
    snapshot: dict[str, object],
) -> tuple[dict[str, object], list[str]]:
    """Fill in sections an older ``metrics.json`` may lack.

    Snapshots recorded before histograms existed carry only
    ``counters``/``gauges``; rendering such an archive must degrade,
    not crash.  Returns the snapshot with every section present (empty
    where missing) plus human-readable annotations naming what was
    filled in — the report prints them so a legacy artifact is
    labelled, never silently mistaken for a complete recording.
    """
    annotations: list[str] = []
    normalized = dict(snapshot)
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(normalized.get(section), dict):
            if section in normalized:
                annotations.append(
                    f"legacy snapshot: malformed {section!r} section replaced "
                    "with an empty one"
                )
            else:
                annotations.append(
                    f"legacy snapshot: no {section!r} section "
                    "(recorded by an older carp trace); table omitted"
                )
            normalized[section] = {}
    return normalized, annotations


def metrics_table(snapshot: dict[str, object]) -> str:
    """Counter/gauge totals from a metrics snapshot."""
    rows: list[list[object]] = []
    counters = snapshot.get("counters")
    if isinstance(counters, dict):
        for name, value in sorted(counters.items()):
            if not isinstance(value, (int, float)):
                rows.append(["counter", name, str(value)])
            elif "bytes" in name:
                rows.append(["counter", name, fmt_bytes(float(value))])
            else:
                rows.append(["counter", name, f"{value:g}"])
    gauges = snapshot.get("gauges")
    if isinstance(gauges, dict):
        for name, value in sorted(gauges.items()):
            shown = (f"{float(value):.3f}"
                     if isinstance(value, (int, float)) else str(value))
            rows.append(["gauge", name, shown])
    histograms = snapshot.get("histograms")
    if isinstance(histograms, dict):
        for name, h in sorted(histograms.items()):
            if isinstance(h, dict):
                mean = h.get("mean", 0.0)
                mean_s = (f"{float(mean):.2f}"
                          if isinstance(mean, (int, float)) else "-")
                summary = f"n={h.get('count')} mean={mean_s}"
                quantiles = " ".join(
                    f"{q}<={float(v):.2f}"
                    for q in ("p50", "p95", "p99")
                    if isinstance(v := h.get(q), (int, float))
                )
                if quantiles:
                    # bucket-upper-bound approximations (Histogram.quantile)
                    summary += f" {quantiles}"
                hmax = h.get("max")
                if isinstance(hmax, (int, float)):
                    summary += f" max={float(hmax):.2f}"
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

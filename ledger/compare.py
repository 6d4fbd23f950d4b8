"""Verdicts between two result files, and the A/A check.

A result file holds one or more *sets* (every workload run once).  For
each (workload, metric) the change's median is held against the
baseline's with the metric's bound from :mod:`ledger.spec`:

``regressed``   worse than the baseline median by more than the bound
``unresolved``  the baseline's own sets spread wider than the bound, so
                "unchanged" cannot be told from noise -- never ``ok``,
                unless every change value beats every baseline value
``ok``          otherwise

``aa`` runs sets of one commit back to back and feeds them to the same
function as both sides: whatever differs is spread, so a pair is ``ok``
only if it agrees within its own bound, and an exact metric (a count)
only if it repeats bit for bit.
"""

from __future__ import annotations

import statistics
from typing import Any

from ledger import spec

#: Workloads with one thread and no timers: their counts repeat exactly.
SINGLE_THREADED = ("ingest-1m", "query-sweep")
_TIME_UNITS = ("ms", "ms/Mrec", "ms/query", "ns/rec", "x")


def worsening(metric: spec.Metric, base: float, new: float) -> float:
    """Share of ``base`` by which ``new`` is worse (negative: better)."""
    delta = new - base if metric.better == "lower" else base - new
    if base == 0:
        return 0.0 if delta == 0 else float("inf") if delta > 0 else float("-inf")
    return delta / abs(base)


def spread(values: list[float]) -> float | None:
    """(max - min) / |median| of a side's sets; None with fewer than two."""
    if len(values) < 2:
        return None
    med = statistics.median(values)
    width = max(values) - min(values)
    if med == 0:
        return 0.0 if width == 0 else float("inf")
    return width / abs(med)


def verdict(metric: spec.Metric, base: list[float], new: list[float], same_commit: bool) -> dict[str, Any]:
    worse = worsening(metric, statistics.median(base), statistics.median(new))
    base_spread = spread(base)
    if same_commit and metric.exact:
        word = "ok" if len(set(base)) == 1 else "unresolved"
    elif base_spread is not None and base_spread > metric.bound:
        better = all(worsening(metric, b, n) < 0 for b in base for n in new)
        word = "ok" if better and not same_commit else "unresolved"
    else:
        word = "regressed" if worse > metric.bound else "ok"
    return {
        "verdict": word, "bound": metric.bound, "worse_by": worse,
        "baseline_spread": base_spread, "baseline": base, "change": new,
    }


def _values(sets: list[dict[str, Any]], workload: str, metric: str) -> list[float]:
    return [
        s["workloads"][workload]["metrics"][metric]["value"]
        for s in sets
        if workload in s["workloads"] and metric in s["workloads"][workload]["metrics"]
    ]


def compare(a: dict[str, Any], b: dict[str, Any], same_commit: bool = False) -> list[dict[str, Any]]:
    """One row per (workload, metric) present on both sides."""
    rows = []
    for workload in spec.WORKLOADS:
        for metric in spec.metrics_of(workload):
            base = _values(a["sets"], workload, metric.name)
            new = _values(b["sets"], workload, metric.name)
            if base and new:
                rows.append({"workload": workload, "metric": metric.name,
                             **verdict(metric, base, new, same_commit)})
    return rows


def layer_counts_agree(traced_sets: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per-layer counts of the single-threaded workloads must repeat exactly."""
    units = dict(spec.PER_LAYER)
    rows = []
    for workload in SINGLE_THREADED:
        runs = [s["workloads"][workload]["layers"] for s in traced_sets
                if workload in s["workloads"]]
        if len(runs) < 2:
            continue
        for name, unit in units.items():
            if unit in _TIME_UNITS:
                continue
            values = [r[name] for r in runs]
            rows.append({"workload": workload, "metric": name, "values": values,
                         "verdict": "ok" if len(set(values)) == 1 else "unresolved"})
    return rows


def render(rows: list[dict[str, Any]]) -> str:
    head = ("workload", "metric", "baseline", "change", "worse by", "bound", "spread", "verdict")
    body = []
    for r in rows:
        sp = r["baseline_spread"]
        body.append((
            r["workload"], r["metric"],
            f"{statistics.median(r['baseline']):.6g}", f"{statistics.median(r['change']):.6g}",
            f"{r['worse_by'] * 100:+.2f}%", f"{r['bound'] * 100:g}%",
            "-" if sp is None else f"{sp * 100:.2f}%", r["verdict"],
        ))
    widths = [max(len(x[i]) for x in [head, *body]) for i in range(len(head))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in [head, *body]]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)

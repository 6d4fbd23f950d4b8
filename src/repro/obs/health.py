"""Declarative SLO health policies over the telemetry stream.

A :class:`HealthPolicy` is a list of threshold rules over the last full
sample a :class:`~repro.obs.telemetry.TelemetryStream` appended to
``telemetry.jsonl`` (the ``final`` sample of a closed session).  Each
rule names one value with a dotted *selector* —

``counters.<name>``
    a cumulative counter, e.g. ``counters.serve.rejected``
``gauges.<name>``
    a gauge, e.g. ``gauges.shuffle.in_flight_records``
``derived.<name>``
    a derived SLO gauge, e.g. ``derived.read_amp`` or
    ``derived.faults_total``
``histograms.<name>.<stat>``
    a histogram statistic, where ``<stat>`` is one of
    ``p50``/``p95``/``p99``/``mean``/``min``/``max``/``count``/``sum``,
    e.g. ``histograms.query.latency.p99``

— and caps it with an inclusive ``max``: observing a value strictly
above it is a breach.  Counters, histograms and the derived gauges
are cumulative over the run, and a gauge worth gating (the shuffle
backlog) must end drained, so the last sample is the one to gate on.

A selector that resolves to nothing (metric never registered, e.g.
quarantine counts on a run that never repaired a log) is reported as
``skipped``, not a breach: policies are written against the union of
everything a run *might* emit.

Policies are JSON.  This module is pure (text/dicts in, report out);
file handling lives in the ``carp health`` CLI
(``repro.tools.health_cli``), which keeps the module O504-clean and
the evaluation unit-testable without a filesystem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

_SECTIONS = ("counters", "gauges", "derived", "histograms")
_HIST_STATS = ("p50", "p95", "p99", "mean", "min", "max", "count", "sum")
_RULE_KEYS = frozenset({"selector", "max", "description"})


@dataclass(frozen=True)
class HealthRule:
    """One SLO cap over a telemetry selector."""

    selector: str
    max: float
    description: str = ""

    def __post_init__(self) -> None:
        section = self.selector.split(".", 1)[0]
        if section not in _SECTIONS or "." not in self.selector:
            raise ValueError(
                f"health selector {self.selector!r} must start with one of "
                f"{', '.join(s + '.' for s in _SECTIONS)}"
            )
        if section == "histograms":
            stat = self.selector.rsplit(".", 1)[-1]
            if stat not in _HIST_STATS or self.selector.count(".") < 2:
                raise ValueError(
                    f"histogram selector {self.selector!r} must end in one "
                    f"of {', '.join(_HIST_STATS)}"
                )


@dataclass(frozen=True)
class HealthPolicy:
    """A named collection of :class:`HealthRule` thresholds."""

    name: str
    rules: tuple[HealthRule, ...]

    @staticmethod
    def from_dict(doc: Mapping[str, object]) -> "HealthPolicy":
        raw_rules = doc.get("rules")
        if not isinstance(raw_rules, list):
            raise ValueError("health policy needs a 'rules' list")
        rules = []
        for i, raw in enumerate(raw_rules):
            if not isinstance(raw, Mapping):
                raise ValueError(f"health policy rule #{i} is not a table")
            selector = raw.get("selector")
            if not isinstance(selector, str):
                raise ValueError(f"health policy rule #{i} needs a 'selector'")
            # a key this evaluator does not read would be silently
            # ignored, loosening the gate its author meant to write
            unknown = sorted(set(raw) - _RULE_KEYS)
            if unknown:
                raise ValueError(
                    f"rule {selector!r}: unknown key(s) {', '.join(unknown)}"
                )
            max_ = raw.get("max")
            if not isinstance(max_, (int, float)):
                raise ValueError(f"rule {selector!r}: max must be a number")
            description = raw.get("description", "")
            if not isinstance(description, str):
                raise ValueError(
                    f"rule {selector!r}: description must be a string"
                )
            rules.append(HealthRule(
                selector=selector, max=float(max_), description=description,
            ))
        name = doc.get("name", "unnamed")
        if not isinstance(name, str):
            raise ValueError("health policy 'name' must be a string")
        return HealthPolicy(name=name, rules=tuple(rules))


def parse_policy(text: str) -> HealthPolicy:
    """Parse a JSON policy document."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("health policy document must be an object")
    return HealthPolicy.from_dict(doc)


# ------------------------------------------------------------ evaluation


@dataclass(frozen=True)
class RuleResult:
    """Outcome of one rule over the last full sample."""

    rule: HealthRule
    #: ``ok`` | ``breach`` | ``skipped``
    status: str
    #: the value in the last full sample (None when skipped)
    observed: float | None = None
    note: str = ""


@dataclass(frozen=True)
class HealthReport:
    """All rule results for one policy over one telemetry stream."""

    policy: str
    results: tuple[RuleResult, ...]
    samples_seen: int = 0

    @property
    def breaches(self) -> tuple[RuleResult, ...]:
        return tuple(r for r in self.results if r.status == "breach")

    @property
    def ok(self) -> bool:
        return not self.breaches

    def to_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "ok": self.ok,
            "samples_seen": self.samples_seen,
            "results": [
                {
                    "selector": r.rule.selector,
                    "max": r.rule.max,
                    "description": r.rule.description,
                    "status": r.status,
                    "observed": r.observed,
                    "note": r.note,
                }
                for r in self.results
            ],
        }

    def render(self) -> str:
        """Human-readable breach report."""
        counts = {"breach": 0, "ok": 0, "skipped": 0}
        for r in self.results:
            counts[r.status] = counts.get(r.status, 0) + 1
        lines = [
            f"health policy {self.policy!r}: "
            f"{counts['breach']} breach(es), {counts['ok']} ok, "
            f"{counts['skipped']} skipped "
            f"({self.samples_seen} full samples)"
        ]
        tag = {"breach": "BREACH", "ok": "ok", "skipped": "skip"}
        for r in self.results:
            line = f"  {tag[r.status]:6s} {r.rule.selector} <= {r.rule.max:g}"
            if r.observed is not None:
                line += f": observed {r.observed:g}"
            if r.note:
                line += f" [{r.note}]"
            if r.rule.description:
                line += f" — {r.rule.description}"
            lines.append(line)
        return "\n".join(lines)


def _resolve(sample: Mapping[str, object], selector: str) -> float | None:
    """Look ``selector`` up in one sample document; None when absent."""
    section, _, rest = selector.partition(".")
    if section == "histograms":
        name, _, stat = rest.rpartition(".")
        hists = sample.get("histograms")
        if not isinstance(hists, Mapping):
            return None
        data = hists.get(name)
        if not isinstance(data, Mapping):
            return None
        value = data.get(stat)
    else:
        table = sample.get(section)
        if not isinstance(table, Mapping):
            return None
        value = table.get(rest)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def evaluate(
    policy: HealthPolicy, samples: Sequence[Mapping[str, object]]
) -> HealthReport:
    """Evaluate every rule in ``policy`` against the last full sample.

    ``samples`` is the parsed ``telemetry.jsonl`` in emission order;
    tick samples are ignored (they carry a driver-scoped subset that
    most selectors cannot resolve against).
    """
    full = [s for s in samples if s.get("kind") != "tick"]
    results: list[RuleResult] = []
    for rule in policy.rules:
        if not full:
            results.append(RuleResult(
                rule=rule, status="skipped", note="no full telemetry samples"
            ))
            continue
        value = _resolve(full[-1], rule.selector)
        if value is None:
            results.append(RuleResult(
                rule=rule, status="skipped",
                note=f"{rule.selector} absent from the last full sample",
            ))
            continue
        results.append(RuleResult(
            rule=rule, status="breach" if value > rule.max else "ok",
            observed=value,
        ))
    return HealthReport(
        policy=policy.name, results=tuple(results), samples_seen=len(full)
    )


def parse_telemetry_lines(text: str) -> list[dict[str, object]]:
    """Parse ``telemetry.jsonl`` content into sample documents.

    Blank lines are tolerated; a malformed line raises ``ValueError``
    naming its (1-based) line number so a truncated stream from a
    crashed run is diagnosable.
    """
    samples: list[dict[str, object]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"telemetry line {lineno} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(doc, dict):
            raise ValueError(
                f"telemetry line {lineno} is not a JSON object"
            )
        samples.append(doc)
    return samples


__all__ = [
    "HealthPolicy",
    "HealthReport",
    "HealthRule",
    "RuleResult",
    "evaluate",
    "parse_policy",
    "parse_telemetry_lines",
]

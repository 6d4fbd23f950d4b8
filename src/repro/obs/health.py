"""Declarative SLO health policies over the telemetry stream.

A :class:`HealthPolicy` is a list of threshold rules over the sample
documents a :class:`~repro.obs.telemetry.TelemetryStream` appends to
``telemetry.jsonl``.  Each rule names one value with a dotted
*selector* —

``counters.<name>``
    a cumulative counter, e.g. ``counters.faults.manifest_write_crashes``
``gauges.<name>``
    a gauge, e.g. ``gauges.shuffle.in_flight_records``
``deltas.<name>``
    the counter's delta since the previous full sample
``derived.<name>``
    a derived SLO gauge, e.g. ``derived.read_amp`` or
    ``derived.faults_total``
``histograms.<name>.<stat>``
    a histogram statistic, where ``<stat>`` is one of
    ``p50``/``p95``/``p99``/``mean``/``min``/``max``/``count``/``sum``,
    e.g. ``histograms.query.latency.p99``

— and bounds it with ``max`` and/or ``min`` (inclusive; observing a
value strictly beyond a bound is a breach).  ``over`` picks the
evaluation window: ``"final"`` (default) checks only the last full
sample — right for cumulative SLOs like total faults — while
``"any"`` checks every full sample, so a mid-run excursion breaches
even if the final state recovered.

A selector that resolves to nothing (metric never registered, e.g.
quarantine counts on a run that never repaired a log) is reported as
``skipped``, not a breach: policies are written against the union of
everything a run *might* emit.

Policies load from JSON anywhere, and from TOML on interpreters that
ship :mod:`tomllib` (3.11+) — the repo supports 3.10, so TOML is
capability-gated, never required.  This module is pure (text/dicts in,
report out); file handling lives in the ``carp health`` CLI
(``repro.tools.health_cli``), which keeps the module O504-clean and
the evaluation unit-testable without a filesystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

_SECTIONS = ("counters", "gauges", "deltas", "derived", "histograms")
_HIST_STATS = ("p50", "p95", "p99", "mean", "min", "max", "count", "sum")
_WINDOWS = ("final", "any")


@dataclass(frozen=True)
class HealthRule:
    """One SLO threshold over a telemetry selector."""

    selector: str
    max: float | None = None
    min: float | None = None
    over: str = "final"
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
        if self.max is None and self.min is None:
            raise ValueError(
                f"health rule {self.selector!r} needs a max and/or min bound"
            )
        if self.over not in _WINDOWS:
            raise ValueError(
                f"health rule {self.selector!r}: over={self.over!r} is not "
                f"one of {_WINDOWS}"
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
            max_ = raw.get("max")
            min_ = raw.get("min")
            if max_ is not None and not isinstance(max_, (int, float)):
                raise ValueError(f"rule {selector!r}: max must be a number")
            if min_ is not None and not isinstance(min_, (int, float)):
                raise ValueError(f"rule {selector!r}: min must be a number")
            over = raw.get("over", "final")
            if not isinstance(over, str):
                raise ValueError(f"rule {selector!r}: over must be a string")
            description = raw.get("description", "")
            if not isinstance(description, str):
                raise ValueError(
                    f"rule {selector!r}: description must be a string"
                )
            rules.append(HealthRule(
                selector=selector,
                max=float(max_) if max_ is not None else None,
                min=float(min_) if min_ is not None else None,
                over=over,
                description=description,
            ))
        name = doc.get("name", "unnamed")
        if not isinstance(name, str):
            raise ValueError("health policy 'name' must be a string")
        return HealthPolicy(name=name, rules=tuple(rules))


def parse_policy(text: str, fmt: str = "json") -> HealthPolicy:
    """Parse a policy document from JSON or (where available) TOML.

    TOML needs :mod:`tomllib` (python >= 3.11); on older interpreters
    a TOML request raises ``RuntimeError`` with a pointer at the JSON
    form, which every supported interpreter can load.
    """
    if fmt == "json":
        import json

        doc = json.loads(text)
    elif fmt == "toml":
        try:
            import tomllib
        except ImportError as exc:  # python 3.10: no stdlib TOML parser
            raise RuntimeError(
                "TOML health policies need python >= 3.11 (tomllib); "
                "use the JSON policy format instead"
            ) from exc
        doc = tomllib.loads(text)
    else:
        raise ValueError(f"unknown health policy format {fmt!r}")
    if not isinstance(doc, dict):
        raise ValueError("health policy document must be a table/object")
    return HealthPolicy.from_dict(doc)


# ------------------------------------------------------------ evaluation


@dataclass(frozen=True)
class RuleResult:
    """Outcome of one rule over the evaluation window."""

    rule: HealthRule
    #: ``ok`` | ``breach`` | ``skipped``
    status: str
    #: the worst value observed in the window (None when skipped)
    observed: float | None = None
    #: ``seq`` of the sample holding the worst value
    at_seq: int | None = None
    #: ``kind`` of that sample
    at_kind: str | None = None
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
                    "min": r.rule.min,
                    "over": r.rule.over,
                    "description": r.rule.description,
                    "status": r.status,
                    "observed": r.observed,
                    "at_seq": r.at_seq,
                    "at_kind": r.at_kind,
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
            bounds = []
            if r.rule.max is not None:
                bounds.append(f"<= {r.rule.max:g}")
            if r.rule.min is not None:
                bounds.append(f">= {r.rule.min:g}")
            line = f"  {tag[r.status]:6s} {r.rule.selector} {' and '.join(bounds)}"
            if r.observed is not None:
                line += f": observed {r.observed:g}"
                if r.at_seq is not None:
                    line += f" at seq {r.at_seq} (kind={r.at_kind})"
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


def _full_samples(
    samples: Sequence[Mapping[str, object]],
) -> list[Mapping[str, object]]:
    return [s for s in samples if s.get("kind") != "tick"]


def evaluate(
    policy: HealthPolicy, samples: Sequence[Mapping[str, object]]
) -> HealthReport:
    """Evaluate every rule in ``policy`` over parsed telemetry samples.

    ``samples`` is the parsed ``telemetry.jsonl`` in emission order;
    tick samples are ignored (they carry a driver-scoped subset that
    most selectors cannot resolve against).
    """
    full = _full_samples(samples)
    results: list[RuleResult] = []
    for rule in policy.rules:
        window = full[-1:] if rule.over == "final" else full
        results.append(_evaluate_rule(rule, window))
    return HealthReport(
        policy=policy.name, results=tuple(results), samples_seen=len(full)
    )


def _evaluate_rule(
    rule: HealthRule, window: Sequence[Mapping[str, object]]
) -> RuleResult:
    if not window:
        return RuleResult(
            rule=rule, status="skipped", note="no full telemetry samples"
        )
    worst: float | None = None
    worst_sample: Mapping[str, object] | None = None
    breach = False
    for sample in window:
        value = _resolve(sample, rule.selector)
        if value is None:
            continue
        value_breaches = (
            (rule.max is not None and value > rule.max)
            or (rule.min is not None and value < rule.min)
        )
        # track the worst observation: prefer any breaching value,
        # then the largest excursion toward the violated direction
        if worst is None or (value_breaches and not breach) or (
            value_breaches == breach and _worse(rule, value, worst)
        ):
            worst = value
            worst_sample = sample
        breach = breach or value_breaches
    if worst is None:
        return RuleResult(
            rule=rule, status="skipped",
            note=f"{rule.selector} absent from sampled window",
        )
    assert worst_sample is not None
    seq = worst_sample.get("seq")
    kind = worst_sample.get("kind")
    return RuleResult(
        rule=rule,
        status="breach" if breach else "ok",
        observed=worst,
        at_seq=seq if isinstance(seq, int) else None,
        at_kind=kind if isinstance(kind, str) else None,
    )


def _worse(rule: HealthRule, candidate: float, incumbent: float) -> bool:
    """Is ``candidate`` a worse observation than ``incumbent``?"""
    if rule.max is not None:
        return candidate > incumbent
    return candidate < incumbent


def parse_telemetry_lines(text: str) -> list[dict[str, object]]:
    """Parse ``telemetry.jsonl`` content into sample documents.

    Blank lines are tolerated; a malformed line raises ``ValueError``
    naming its (1-based) line number so a truncated stream from a
    crashed run is diagnosable.
    """
    import json

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

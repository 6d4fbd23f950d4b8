"""``carp health`` — gate a run on a declarative SLO policy.

Evaluates a :class:`~repro.obs.health.HealthPolicy` (JSON, or TOML on
python >= 3.11) against the ``telemetry.jsonl`` stream a telemetry-
enabled session produced, prints the breach report, and exits nonzero
when any rule breached — the CI-facing end of the telemetry plane::

    carp health out/telemetry.jsonl --policy configs/health_default.json
    carp health out/telemetry.jsonl --policy slo.toml --json health.json

Exit status: 0 all rules ok (or skipped), 1 at least one breach, 2 a
usage/input problem (unreadable stream, malformed policy).  Skipped
rules — selectors the run never emitted, e.g. quarantine counters on a
fault-free run — are reported but never fail the gate; pass
``--strict-skips`` to treat them as breaches when a policy must fully
resolve.

See docs/OBSERVABILITY.md for the policy format and the
``telemetry.jsonl`` schema.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs.health import (
    HealthPolicy,
    evaluate,
    parse_policy,
    parse_telemetry_lines,
)
from repro.tools import add_json_report, write_json_report


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("telemetry", type=Path,
                   help="path to the telemetry.jsonl stream to gate on")
    p.add_argument("--policy", required=True, type=Path,
                   help="health policy file (.json, or .toml on py3.11+)")
    add_json_report(p, "also write the full report as JSON")
    p.add_argument("--strict-skips", action="store_true",
                   help="fail when any rule's selector never resolved")


def _load_policy(path: Path) -> HealthPolicy:
    fmt = "toml" if path.suffix.lower() == ".toml" else "json"
    return parse_policy(path.read_text(encoding="utf-8"), fmt=fmt)


def run(args: argparse.Namespace) -> int:
    try:
        policy = _load_policy(args.policy)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: cannot load policy {args.policy}: {exc}",
              file=sys.stderr)
        return 2
    try:
        samples = parse_telemetry_lines(
            args.telemetry.read_text(encoding="utf-8")
        )
    except (OSError, ValueError) as exc:
        print(f"error: cannot read telemetry {args.telemetry}: {exc}",
              file=sys.stderr)
        return 2

    report = evaluate(policy, samples)
    print(report.render())
    if args.json is not None:
        write_json_report(args.json, report.to_dict())

    if not report.ok:
        return 1
    if args.strict_skips and any(
        r.status == "skipped" for r in report.results
    ):
        print("error: unresolved selectors with --strict-skips",
              file=sys.stderr)
        return 1
    return 0

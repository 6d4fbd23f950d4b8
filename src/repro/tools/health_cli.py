"""``carp health`` — gate a run on a declarative SLO policy.

Evaluates a JSON :class:`~repro.obs.health.HealthPolicy` against the
last full sample of the ``telemetry.jsonl`` stream a telemetry-enabled
session produced, prints the breach report, and exits nonzero when any
rule breached — the CI-facing end of the telemetry plane::

    carp health out/telemetry.jsonl --policy configs/health_default.json
    carp health out/telemetry.jsonl --policy slo.json --json health.json

Exit status: 0 all rules ok (or skipped), 1 at least one breach, 2 a
usage/input problem (unreadable stream, malformed policy).  Skipped
rules — selectors the run never emitted, e.g. quarantine counters on a
fault-free run — are reported but never fail the gate.

See docs/OBSERVABILITY.md for the policy format and the
``telemetry.jsonl`` schema.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs.health import evaluate, parse_policy, parse_telemetry_lines
from repro.tools import add_json_report, write_json_report


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("telemetry", type=Path,
                   help="path to the telemetry.jsonl stream to gate on")
    p.add_argument("--policy", required=True, type=Path,
                   help="health policy file (JSON)")
    add_json_report(p, "also write the full report as JSON")


def run(args: argparse.Namespace) -> int:
    try:
        policy = parse_policy(args.policy.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
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

    return 0 if report.ok else 1

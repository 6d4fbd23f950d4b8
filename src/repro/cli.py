"""``carp`` — one command for every tool: ``carp <subcommand> ...``.

Each subcommand is a module exporting ``add_arguments(parser)`` and
``run(args) -> int`` (see :mod:`repro.tools`).  ``python -m repro
<subcommand>`` is the same command without an installed script.

The paper artifact's three binaries keep their names as console-script
aliases, each forwarding its argv unchanged: ``carp-range-runner``
(A3), ``carp-compactor`` (A4) and ``carp-range-reader`` (A5).

    carp tracegen -o /tmp/trace --ranks 4 --records 300 --timesteps 100
    carp range-runner -i /tmp/trace -o /tmp/carp-out -n 4
    carp fsck -i /tmp/carp-out
    carp lint src/repro
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from types import ModuleType

from repro.analysis import cli as lint_cli
from repro.perf import cli as perf_cli
from repro.tools import (
    chaos_cli,
    compactor_cli,
    explain_cli,
    fsck_cli,
    health_cli,
    profile_cli,
    range_reader_cli,
    range_runner,
    serve_cli,
    trace_cli,
    tracegen,
)

#: Subcommand name -> (module, description).
SUBCOMMANDS: dict[str, tuple[ModuleType, str]] = {
    "range-runner": (
        range_runner,
        "Replay an eparticle trace through CARP's in-situ range "
        "partitioner.",
    ),
    "compactor": (
        compactor_cli,
        "Merge CARP output into a fully sorted clustered index.",
    ),
    "range-reader": (
        range_reader_cli,
        "Query client for CARP / sorted partitioned output.",
    ),
    "tracegen": (
        tracegen,
        "Generate a synthetic VPIC/AMR trace in eparticle format.",
    ),
    "fsck": (fsck_cli, "Verify CRCs and invariants of KoiDB output."),
    "lint": (
        lint_cli,
        "Repo-aware static analysis: determinism, on-disk format safety, "
        "clock discipline, cross-thread safety, crash consistency.",
    ),
    "trace": (
        trace_cli,
        "Run an instrumented synthetic CARP ingestion and write a "
        "Perfetto-loadable trace plus metrics/telemetry snapshots; or "
        "re-render reports from archived artifacts.",
    ),
    "explain": (
        explain_cli,
        "Explain a range query over KoiDB logs: per-log plan, cost "
        "breakdown, and exact reconciliation against the executed "
        "query's measured cost.",
    ),
    "perf": (perf_cli, "Baseline-gated performance benchmarks for CARP."),
    "profile": (
        profile_cli,
        "Fold archived trace/metrics artifacts into deterministic "
        "count-attribution profiles; diff profiles to blame changes on "
        "span paths.",
    ),
    "chaos": (chaos_cli, "Seeded ingest → kill → recover → query trials."),
    "health": (
        health_cli,
        "Evaluate an SLO health policy over a telemetry.jsonl stream and "
        "exit nonzero on any breach.",
    ),
    "serve": (
        serve_cli,
        "Drive Session.serve() with concurrent closed-loop clients while "
        "epochs ingest; report latency quantiles and counters.",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carp",
        description="CARP reproduction tools: ingest, compact, query, "
        "verify, trace, profile and gate.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND",
                                required=True)
    for name, (module, description) in SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=description, description=description)
        module.add_arguments(cmd)
        cmd.set_defaults(handler=module.run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    status: int = args.handler(args)
    return status


def range_runner_alias() -> int:
    return main(["range-runner", *sys.argv[1:]])


def compactor_alias() -> int:
    return main(["compactor", *sys.argv[1:]])


def range_reader_alias() -> int:
    return main(["range-reader", *sys.argv[1:]])

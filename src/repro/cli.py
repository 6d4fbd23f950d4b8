"""``carp`` — one command for every tool: ``carp <subcommand> ...``.

Each subcommand is a module exporting ``add_arguments(parser)`` and
``run(args) -> int`` (see :mod:`repro.tools`).  ``python -m repro
<subcommand>`` is the same command without an installed script.
``carp`` is the only console script, and every subcommand is one that
a CI step runs (docs/API.md § Command-line tools keeps the table).

    carp trace -o /tmp/carp-obs --ranks 4 --epochs 2 --records 300
    carp fsck -i /tmp/carp-obs/db
    carp range-reader -i /tmp/carp-obs/db -a
    carp lint src/repro
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence
from types import ModuleType

from repro.analysis import cli as lint_cli
from repro.perf import cli as perf_cli
from repro.tools import (
    chaos_cli,
    explain_cli,
    fsck_cli,
    health_cli,
    profile_cli,
    range_reader_cli,
    serve_cli,
    trace_cli,
)

#: Subcommand name -> (module, description).
SUBCOMMANDS: dict[str, tuple[ModuleType, str]] = {
    "range-reader": (
        range_reader_cli,
        "Analyze CARP / sorted partitioned output: store statistics and "
        "selectivity at keyspace probes.",
    ),
    "fsck": (fsck_cli, "Verify CRCs and invariants of KoiDB output."),
    "lint": (
        lint_cli,
        "Repo-aware static analysis: determinism, on-disk format safety, "
        "clock discipline, cross-thread safety, crash consistency.",
    ),
    "trace": (
        trace_cli,
        "Run an instrumented synthetic CARP ingestion and write its store, "
        "a Perfetto-loadable trace and metrics/telemetry snapshots.",
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
        "count-attribution profiles.",
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
        description="CARP reproduction tools: record, verify, query, "
        "profile, serve and gate.",
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


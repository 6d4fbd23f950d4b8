"""``carp-lint`` — the repository's invariant linter, as a CLI.

Usage::

    carp-lint src/repro                 # human output, exit 1 on findings
    carp-lint --format json src/repro   # machine-readable
    carp-lint --format sarif src/repro  # GitHub code-scanning upload
    carp-lint --list-rules              # rule catalogue
    carp-lint --select D,F201 src       # run a subset
    carp-lint --ignore H006 src         # drop a family or rule

Exit status: 0 when clean, 1 when any violation or parse error
survives suppression, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.runner import (
    ALL_RULES,
    format_human,
    lint_paths,
    select_rules,
)
from repro.analysis.sarif import format_sarif


def _split_spec(spec: list[str]) -> list[str]:
    out: list[str] = []
    for item in spec:
        out.extend(s.strip() for s in item.split(",") if s.strip())
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carp-lint",
        description="Repo-aware static analysis: determinism, on-disk "
        "format safety, cost-model accounting, typing surface, "
        "cross-thread safety, crash consistency, resource lifetime.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format",
    )
    parser.add_argument(
        "--select", action="append", default=None, metavar="RULES",
        help="comma-separated rule ids/prefixes to run (e.g. D,F201)",
    )
    parser.add_argument(
        "--ignore", action="append", default=None, metavar="RULES",
        help="comma-separated rule ids/prefixes to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            scope = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule.id}  {rule.name:28s} [{scope}] {rule.description}")
        return 0

    try:
        rules = select_rules(
            _split_spec(args.select) if args.select else None,
            _split_spec(args.ignore) if args.ignore else None,
        )
    except ValueError as exc:
        print(f"carp-lint: {exc}", file=sys.stderr)
        return 2

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(
            f"carp-lint: no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    result = lint_paths(list(args.paths), rules=rules)

    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    elif args.format == "sarif":
        print(format_sarif(result, rules))
    else:
        print(format_human(result))
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

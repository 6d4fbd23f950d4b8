"""SARIF 2.1.0 rendering of lint results.

``carp lint --format sarif`` emits one run in the Static Analysis
Results Interchange Format so CI can upload findings to GitHub code
scanning and annotate PRs inline.  Only the fields code scanning
consumes are emitted: the tool driver with its rule catalogue, and one
``result`` per finding with a physical location.

Paths are emitted repo-relative (SARIF wants URIs relative to the
checkout root) when they fall under the current working directory.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.core import Rule, Violation
from repro.analysis.runner import LintResult

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _relative_uri(path: str) -> str:
    p = Path(path)
    try:
        p = p.resolve().relative_to(Path.cwd().resolve())
    except ValueError:
        pass
    return p.as_posix()


def _rule_entry(rule: Rule) -> dict[str, object]:
    return {
        "id": rule.id,
        "name": rule.name,
        "shortDescription": {"text": rule.description},
        "defaultConfiguration": {"level": "error"},
        "properties": {
            "scope": list(rule.scope) if rule.scope else ["everywhere"]
        },
    }


def _result_entry(v: Violation, rule_index: dict[str, int]) -> dict[str, object]:
    out: dict[str, object] = {
        "ruleId": v.rule,
        "level": "error",
        "message": {"text": v.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": _relative_uri(v.path),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(v.line, 1),
                        "startColumn": v.col + 1,
                    },
                }
            }
        ],
    }
    if v.rule in rule_index:
        out["ruleIndex"] = rule_index[v.rule]
    return out


def to_sarif(result: LintResult, rules: list[Rule]) -> dict[str, object]:
    """One SARIF log for a lint run (parse errors become tool notes)."""
    rule_entries = [_rule_entry(r) for r in rules]
    rule_index = {r.id: i for i, r in enumerate(rules)}
    results = [_result_entry(v, rule_index) for v in result.violations]
    notifications = [
        {"level": "error", "message": {"text": err}}
        for err in result.parse_errors
    ]
    run: dict[str, object] = {
        "tool": {
            "driver": {
                "name": "carp-lint",
                "informationUri": "https://example.invalid/carp-lint",
                "rules": rule_entries,
            }
        },
        "results": results,
        "invocations": [
            {
                "executionSuccessful": not result.parse_errors,
                "toolExecutionNotifications": notifications,
            }
        ],
    }
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [run],
    }


def format_sarif(result: LintResult, rules: list[Rule]) -> str:
    return json.dumps(to_sarif(result, rules), indent=2, sort_keys=False)

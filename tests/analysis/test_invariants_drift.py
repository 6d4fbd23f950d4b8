"""Drift detector: docs, rule registry, and fixture corpus stay in sync.

Three-way consistency, failing with the exact missing ids:

* every rule id mentioned in ``docs/INVARIANTS.md`` is implemented;
* every implemented rule is documented there;
* every implemented rule appears in the fixture corpus (a bad-example
  file demonstrates what it catches).

A fourth check keeps suppressions honest: every rule id a
``# carp-lint: disable*`` comment names is a registered rule.
"""

import re
from pathlib import Path

from repro.analysis.core import parse_line_suppressions, parse_suppressions
from repro.analysis.runner import ALL_RULES

_REPO = Path(__file__).resolve().parents[2]
_INVARIANTS = _REPO / "docs" / "INVARIANTS.md"

# rule ids are one family letter plus 3-4 digits (D104 ... W903)
_RULE_ID_RE = re.compile(r"\b([A-Z]\d{3,4})\b")


def _documented_ids() -> set[str]:
    return set(_RULE_ID_RE.findall(_INVARIANTS.read_text()))


def _implemented_ids() -> set[str]:
    return {rule.id for rule in ALL_RULES}


def test_every_implemented_rule_is_documented():
    missing = _implemented_ids() - _documented_ids()
    assert not missing, (
        f"rules implemented but absent from docs/INVARIANTS.md: "
        f"{sorted(missing)}"
    )


def test_every_documented_rule_is_implemented():
    phantom = _documented_ids() - _implemented_ids()
    assert not phantom, (
        f"rule ids documented in docs/INVARIANTS.md but not registered "
        f"in ALL_RULES: {sorted(phantom)}"
    )


def test_every_rule_appears_in_the_fixture_corpus(fixtures_dir):
    corpus = "\n".join(
        path.read_text() for path in sorted(fixtures_dir.glob("*.py"))
    )
    uncovered = {
        rule_id for rule_id in _implemented_ids() if rule_id not in corpus
    }
    assert not uncovered, (
        f"rules with no fixture under tests/analysis/fixtures/: "
        f"{sorted(uncovered)}"
    )


def test_every_suppressed_id_is_a_registered_rule(fixtures_dir):
    known = _implemented_ids() | {"all"}
    dead: dict[str, list[str]] = {}
    for root in (_REPO / "src", _REPO / "scripts", fixtures_dir):
        for path in sorted(root.rglob("*.py")):
            source = path.read_text()
            named = parse_suppressions(source).union(
                *parse_line_suppressions(source).values()
            )
            if named - known:
                dead[str(path.relative_to(_REPO))] = sorted(named - known)
    assert not dead, f"suppressions naming unregistered rules: {dead}"


def test_rule_descriptions_are_nonempty():
    for rule in ALL_RULES:
        assert rule.id and rule.name and rule.description, rule

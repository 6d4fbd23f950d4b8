"""SARIF output shape."""

import json

from repro.analysis import lint_paths
from repro.analysis.cli import main
from repro.analysis.runner import rules_by_id
from repro.analysis.sarif import SARIF_SCHEMA, to_sarif

# ----------------------------------------------------------------- SARIF


def _bad_result(fixtures_dir):
    return lint_paths([fixtures_dir / "bad_hygiene.py"])


def test_sarif_document_shape(fixtures_dir):
    result = _bad_result(fixtures_dir)
    doc = to_sarif(result, rules_by_id().values())
    assert doc["$schema"] == SARIF_SCHEMA
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "carp-lint"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert len(rule_ids) == len(set(rule_ids))
    assert run["results"], "bad fixture must produce results"
    assert run["invocations"][0]["executionSuccessful"] is True


def test_sarif_results_reference_the_rule_catalogue(fixtures_dir):
    result = _bad_result(fixtures_dir)
    doc = to_sarif(result, rules_by_id().values())
    run = doc["runs"][0]
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    for res in run["results"]:
        assert rule_ids[res["ruleIndex"]] == res["ruleId"]
        loc = res["locations"][0]["physicalLocation"]
        region = loc["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1
        assert not loc["artifactLocation"]["uri"].startswith("/")


def test_sarif_cli_output_is_valid_json(fixtures_dir, capsys):
    code = main(
        [str(fixtures_dir / "bad_hygiene.py"), "--format", "sarif"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"]

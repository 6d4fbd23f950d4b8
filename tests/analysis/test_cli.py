"""Exit codes, JSON output shape, and rule selection for carp lint."""

import json

import pytest

from repro.analysis import ALL_RULES
from repro.cli import main


def test_clean_repo_exits_zero(repo_src, capsys):
    assert main(["lint", str(repo_src)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out


@pytest.mark.parametrize(
    "fixture",
    [
        "bad_determinism.py",
        "bad_format.py",
        "bad_obs.py",
        "bad_exec.py",
        "bad_concurrency.py",
        "bad_writepath.py",
    ],
)
def test_each_bad_fixture_exits_nonzero(fixtures_dir, fixture, capsys):
    assert main(["lint", str(fixtures_dir / fixture)]) == 1
    out = capsys.readouterr().out
    assert fixture in out


def test_json_output_shape(fixtures_dir, capsys):
    code = main(
        ["lint", str(fixtures_dir / "bad_determinism.py"), "--format", "json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    assert payload["violations"]
    v = payload["violations"][0]
    assert set(v) >= {"rule", "message", "path", "line", "col"}
    assert isinstance(v["line"], int)


def test_select_restricts_rules(fixtures_dir, capsys):
    # only W rules requested: determinism fixture is then clean
    code = main(
        ["lint", str(fixtures_dir / "bad_determinism.py"), "--select", "W"]
    )
    assert code == 0
    capsys.readouterr()


def test_ignore_drops_family(fixtures_dir, capsys):
    code = main(
        ["lint", str(fixtures_dir / "bad_determinism.py"), "--ignore", "D,O501"]
    )
    assert code == 0
    capsys.readouterr()


def test_unknown_selector_is_usage_error(capsys):
    assert main(["lint", "--select", "Z999", "src"]) == 2
    err = capsys.readouterr().err
    assert "Z999" in err


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("D104", "F203", "O501", "W901", "X802"):
        assert rule_id in out
    assert len(out.splitlines()) == len(ALL_RULES)


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope.py")]) == 2
    capsys.readouterr()

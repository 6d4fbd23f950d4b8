"""Benchmark result persistence: text tables + JSON companions."""

import json
from pathlib import Path

import pytest

from repro.bench.results import emit, git_sha, results_dir

#: False in a ``git archive`` export (the layout ledger A/Bs run from),
#: where ``git_sha()`` correctly resolves to ``None``.
IN_CHECKOUT = (Path(__file__).resolve().parents[2] / ".git").exists()


class TestResultsDir:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "r"))
        assert results_dir() == tmp_path / "r"
        assert (tmp_path / "r").is_dir()


class TestEmit:
    def test_text_only(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = emit("figX", "hello table")
        assert path.read_text() == "hello table\n"
        assert "hello table" in capsys.readouterr().out
        assert not (tmp_path / "figX.json").exists()

    def test_rows_write_json_companion(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        rows = [{"ranks": 32, "carp": 1.5e9}, {"ranks": 64, "carp": 3.0e9}]
        emit("figX", "table", rows=rows, units={"carp": "B/s"})
        capsys.readouterr()
        doc = json.loads((tmp_path / "figX.json").read_text())
        assert doc["figure"] == "figX"
        assert doc["rows"] == rows
        assert doc["units"] == {"carp": "B/s"}
        if IN_CHECKOUT:  # measured inside this repo: the SHA must resolve
            assert isinstance(doc["git_sha"], str)
            assert len(doc["git_sha"]) == 40
        else:
            assert doc["git_sha"] is None

    def test_json_round_trips_exactly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        rows = [{"epoch": 0, "raf_p50": 1.25, "repartitioning": True}]
        emit("figY", "t", rows=rows, units={})
        capsys.readouterr()
        doc = json.loads((tmp_path / "figY.json").read_text())
        assert doc["rows"][0]["repartitioning"] is True
        assert doc["rows"][0]["raf_p50"] == 1.25


class TestGitSha:
    @pytest.mark.skipif(not IN_CHECKOUT, reason="export without .git")
    def test_resolves_head_in_this_repo(self):
        sha = git_sha()
        assert sha is not None
        assert len(sha) == 40
        assert all(c in "0123456789abcdef" for c in sha)

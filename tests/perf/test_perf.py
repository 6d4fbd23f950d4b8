"""carp-perf: deterministic workloads, baseline gating, CLI exit codes.

The regression gate's contract is exercised end-to-end through the CLI
against a redirected ``REPRO_RESULTS_DIR``: a fresh baseline compares
clean (exit 0), a tampered baseline injecting a >=10% virtual-time
regression fails (exit nonzero), and a baseline row of a kind the
harness does not gate is rejected rather than waved through.
"""

from __future__ import annotations

import json

import pytest

from repro.perf.cli import main as perf_main
from repro.perf.harness import (
    VIRTUAL_TOLERANCE,
    Metric,
    _compare_metric,
    baseline_path,
    profile_baseline_path,
    run_workload,
)
from repro.perf.workloads import WORKLOADS


@pytest.fixture()
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


def _tamper(name: str, metric: str, scale: float = 1.0,
            shift: float = 0.0) -> None:
    path = baseline_path(name)
    doc = json.loads(path.read_text())
    for row in doc["rows"]:
        if row["metric"] == metric:
            row["value"] = row["value"] * scale + shift
            break
    else:  # pragma: no cover - guards test typos
        raise AssertionError(f"no row {metric} in {path}")
    path.write_text(json.dumps(doc))


class TestRunWorkload:
    def test_virtual_and_exact_metrics_deterministic(self):
        spec = WORKLOADS["ingest-serial"]
        first = {m.name: m for m in run_workload(spec).metrics}
        second = {m.name: m for m in run_workload(spec).metrics}
        for name, metric in first.items():
            assert second[name].value == metric.value, name
        assert first["records_ingested"].value > 0
        assert first["ingest_virtual_ticks"].value > 0

    def test_unknown_kind_rejected(self):
        spec = WORKLOADS["ingest-serial"]
        bad = type(spec)(name="x", kind="nope", backend="serial")
        with pytest.raises(ValueError, match="unknown workload kind"):
            run_workload(bad)


class TestCompareMetric:
    ROW = {"metric": "m", "kind": "virtual", "unit": "ticks",
           "value": 100.0, "tolerance": VIRTUAL_TOLERANCE}

    def _current(self, value: float, kind: str = "virtual") -> Metric:
        return Metric("m", value, "ticks", kind, VIRTUAL_TOLERANCE)

    def test_within_tolerance_ok(self):
        c = _compare_metric(self.ROW, self._current(101.0))
        assert c.status == "ok" and not c.blocking

    def test_regression_blocks(self):
        c = _compare_metric(self.ROW, self._current(111.0))
        assert c.status == "regressed" and c.blocking

    def test_improvement_surfaces_without_blocking(self):
        c = _compare_metric(self.ROW, self._current(80.0))
        assert c.status == "improved" and not c.blocking

    def test_exact_change_blocks(self):
        row = dict(self.ROW, kind="exact", tolerance=0.0)
        c = _compare_metric(row, self._current(100.5, kind="exact"))
        assert c.status == "changed" and c.blocking

    @pytest.mark.parametrize("current", [100.0, None])
    def test_unknown_kind_row_blocks(self, current):
        # e.g. a stale wall-clock row from an old checkout: equal value
        # or not, it is not compared under the virtual-tolerance rule
        row = dict(self.ROW, kind="advisory")
        fresh = None if current is None else self._current(current)
        c = _compare_metric(row, fresh)
        assert c.status == "unknown-kind" and c.blocking

    def test_missing_current_blocks(self):
        c = _compare_metric(self.ROW, None)
        assert c.status == "missing" and c.blocking


class TestCli:
    def test_list(self, capsys):
        assert perf_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in WORKLOADS:
            assert name in out
        assert sorted(WORKLOADS) == [
            "compact-process", "compact-serial", "ingest-process",
            "ingest-serial", "obs-overhead", "query-serial", "serve-mixed",
        ]

    def test_unknown_workload_exits_2(self, results_dir):
        assert perf_main(["run", "no-such-workload"]) == 2

    def test_fresh_baseline_compares_clean(self, results_dir, capsys):
        assert perf_main(["run", "ingest-serial"]) == 0
        assert baseline_path("ingest-serial").is_file()
        assert perf_main(["compare", "ingest-serial"]) == 0
        out = capsys.readouterr().out
        assert "ingest_virtual_ticks" in out

    def test_injected_regression_fails_gate(self, results_dir, capsys):
        assert perf_main(["run", "ingest-serial"]) == 0
        # lowering the baseline 10% makes the unchanged current run
        # read as a +11% virtual-time regression
        _tamper("ingest-serial", "ingest_virtual_ticks", scale=0.9)
        json_out = results_dir / "cmp.json"
        rc = perf_main(["compare", "ingest-serial",
                        "--json", str(json_out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "perf regression gate failed" in err
        assert "ingest_virtual_ticks" in err
        doc = json.loads(json_out.read_text())
        assert doc["blocking"] is True
        status = {
            m["metric"]: m["status"]
            for m in doc["workloads"][0]["metrics"]
        }
        assert status["ingest_virtual_ticks"] == "regressed"

    def test_exact_output_change_fails_gate(self, results_dir):
        assert perf_main(["run", "ingest-serial"]) == 0
        _tamper("ingest-serial", "records_ingested", shift=1.0)
        assert perf_main(["compare", "ingest-serial"]) == 1

    def test_stale_row_kind_fails_gate_with_rerecord_hint(
        self, results_dir, capsys
    ):
        assert perf_main(["run", "ingest-serial"]) == 0
        path = baseline_path("ingest-serial")
        doc = json.loads(path.read_text())
        doc["rows"].append({"metric": "host_seconds", "kind": "advisory",
                            "unit": "s", "value": 0.04, "tolerance": 0.25})
        path.write_text(json.dumps(doc))
        assert perf_main(["compare", "ingest-serial"]) == 1
        err = capsys.readouterr().err
        assert "host_seconds (unknown-kind)" in err
        assert "re-record the baseline" in err

    def test_missing_baseline_fails(self, results_dir, capsys):
        assert perf_main(["compare", "ingest-serial"]) == 1
        assert "no baseline" in capsys.readouterr().err


class TestProfileIntegration:
    def test_run_commits_profile_baseline(self, results_dir, capsys):
        assert perf_main(["run", "ingest-serial"]) == 0
        path = profile_baseline_path("ingest-serial")
        assert path.is_file()
        assert path.with_suffix(".folded").is_file()
        doc = json.loads(path.read_text())
        assert doc["schema"] == "carp-profile-v1"
        assert doc["totals"]["records"] > 0
        # the run reconciled exactly, and the gate metric records that
        baseline = json.loads(baseline_path("ingest-serial").read_text())
        reconcile = next(
            r for r in baseline["rows"]
            if r["metric"] == "profile_reconcile_errors"
        )
        assert reconcile["value"] == 0.0 and reconcile["kind"] == "exact"

    def test_profile_subcommand_writes_fresh_profiles(self, results_dir,
                                                      capsys):
        out = results_dir / "fresh"
        assert perf_main(["profile", "ingest-serial",
                          "--out", str(out)]) == 0
        assert (out / "ingest-serial.json").is_file()
        assert (out / "ingest-serial.folded").is_file()

    def test_gate_failure_blames_injected_hot_span(self, results_dir,
                                                   capsys):
        """A tripped gate names the diff artifact and the hot path.

        Tampering the committed baseline profile at its hottest frame
        simulates a regression localized to one span path; the compare
        failure output must name the diff-profile artifact and put
        that path first in the inline blame lines.
        """
        assert perf_main(["run", "ingest-serial"]) == 0
        _tamper("ingest-serial", "ingest_virtual_ticks", scale=0.9)
        path = profile_baseline_path("ingest-serial")
        doc = json.loads(path.read_text())
        hot = max(doc["frames"], key=lambda f: f["self_ns"])
        hot["self_ns"] -= 500_000_000
        hot["total_ns"] -= 500_000_000
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert perf_main(["compare", "ingest-serial"]) == 1
        err = capsys.readouterr().err
        diff_path = (results_dir / "profile-diffs"
                     / "ingest-serial.profile-diff.json")
        assert f"diff profile: {diff_path}" in err
        blame = [line for line in err.splitlines()
                 if "regressed span path" in line]
        assert blame and ";".join(hot["stack"]) in blame[0]
        assert "+500000000 ns self" in blame[0]
        diff_doc = json.loads(diff_path.read_text())
        assert diff_doc["schema"] == "carp-profile-diff-v1"
        assert diff_doc["entries"][0]["stack"] == hot["stack"]
        assert diff_doc["entries"][0]["self_delta_ns"] == 500_000_000

    def test_gate_failure_without_profile_baseline_notes_it(
            self, results_dir, capsys):
        assert perf_main(["run", "ingest-serial"]) == 0
        _tamper("ingest-serial", "ingest_virtual_ticks", scale=0.9)
        profile_baseline_path("ingest-serial").unlink()
        capsys.readouterr()
        assert perf_main(["compare", "ingest-serial"]) == 1
        err = capsys.readouterr().err
        assert "no baseline profile" in err

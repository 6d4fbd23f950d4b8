"""carp perf: deterministic workloads, baseline gating, CLI exit codes.

The gate's contract is exercised end-to-end through the CLI against a
redirected ``REPRO_RESULTS_DIR``: a fresh baseline compares clean
(exit 0), a baseline moved by as little as one ulp fails (exit
nonzero), a stale baseline row the run no longer produces is
``missing`` and blocks with a re-record hint, and a committed profile
that is not byte-identical to the fresh one, or is absent, blocks too.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf.harness import (
    Metric,
    _compare_metric,
    baseline_path,
    profile_baseline_path,
    run_workload,
)
from repro.perf.workloads import WORKLOADS
from repro.storage.blocks import CHUNK_RECORDS

#: The committed baselines, whatever ``REPRO_RESULTS_DIR`` says.
REPO_BASELINES = Path(__file__).resolve().parents[2] / "results" / "baselines"


@pytest.fixture()
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


def _tamper(name: str, metric: str, scale: float = 1.0,
            shift: float = 0.0, ulp: bool = False) -> None:
    path = baseline_path(name)
    doc = json.loads(path.read_text())
    for row in doc["rows"]:
        if row["metric"] == metric:
            row["value"] = row["value"] * scale + shift
            if ulp:
                row["value"] = math.nextafter(row["value"], math.inf)
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
        assert first["renegotiations"].value > 0

    def test_renegotiations_row_is_exact(self):
        """Σ ``EpochStats.renegotiations`` is a row, equal to the
        committed baseline, so a partitioning change that keeps the
        written bytes equal still trips the gate."""
        fresh = {m.name: m for m in run_workload(WORKLOADS["ingest-serial"]).metrics}
        assert fresh["renegotiations"].unit == "renegotiations"
        assert float(fresh["renegotiations"].value).is_integer()
        committed = json.loads(
            (REPO_BASELINES / "ingest-serial.json").read_text()
        )
        row = next(r for r in committed["rows"]
                   if r["metric"] == "renegotiations")
        assert fresh["renegotiations"].value == row["value"]

    def test_query_rows_see_zone_map_pruning(self):
        """query-serial's full SSTs hold several key chunks, so its
        probes search fewer key chunks than the SSTs they read hold."""
        spec = WORKLOADS["query-serial"]
        assert spec.memtable_records >= 4 * CHUNK_RECORDS
        committed = {
            r["metric"]: r["value"] for r in json.loads(
                (REPO_BASELINES / "query-serial.json").read_text()
            )["rows"]
        }
        assert committed["query_key_chunks_skipped"] > 0
        assert committed["query_key_chunks_read"] > committed["query_ssts_read"]

    def test_unknown_kind_rejected(self):
        spec = WORKLOADS["ingest-serial"]
        bad = type(spec)(name="x", kind="nope")
        with pytest.raises(ValueError, match="unknown workload kind"):
            run_workload(bad)


class TestCompareMetric:
    ROW = {"metric": "m", "unit": "s", "value": 100.0}

    def _current(self, value: float) -> Metric:
        return Metric("m", value, "s")

    def test_equal_value_ok(self):
        c = _compare_metric(self.ROW, self._current(100.0))
        assert c.status == "ok" and not c.blocking

    def test_exact_change_blocks(self):
        c = _compare_metric(self.ROW, self._current(100.5))
        assert c.status == "changed" and c.blocking

    @pytest.mark.parametrize("direction", [-math.inf, math.inf])
    def test_one_ulp_either_way_blocks(self, direction):
        c = _compare_metric(self.ROW,
                            self._current(math.nextafter(100.0, direction)))
        assert c.status == "changed" and c.blocking

    def test_missing_current_blocks(self):
        c = _compare_metric(self.ROW, None)
        assert c.status == "missing" and c.blocking


class TestCli:
    def test_unknown_workload_exits_2(self, results_dir):
        assert main(["perf", "run", "no-such-workload"]) == 2

    def test_fresh_baseline_compares_clean(self, results_dir, capsys):
        assert main(["perf", "run", "ingest-serial"]) == 0
        assert baseline_path("ingest-serial").is_file()
        assert main(["perf", "compare", "ingest-serial"]) == 0
        out = capsys.readouterr().out
        assert "renegotiations" in out

    def test_injected_regression_fails_gate(self, results_dir, capsys):
        assert main(["perf", "run", "ingest-serial"]) == 0
        _tamper("ingest-serial", "koidb_bytes_written", scale=0.9)
        json_out = results_dir / "cmp.json"
        rc = main(["perf", "compare", "ingest-serial",
                   "--json", str(json_out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "perf regression gate failed" in err
        assert "koidb_bytes_written (changed)" in err
        doc = json.loads(json_out.read_text())
        assert doc["blocking"] is True
        status = {
            m["metric"]: m["status"]
            for m in doc["workloads"][0]["metrics"]
        }
        assert status["koidb_bytes_written"] == "changed"
        assert set(status.values()) == {"ok", "changed"}

    def test_one_ulp_modeled_latency_drift_fails_gate(self, results_dir,
                                                      capsys):
        """Modeled latency is compared by equality: no tolerance band."""
        assert main(["perf", "run", "query-serial"]) == 0
        _tamper("query-serial", "query_latency_modeled", ulp=True)
        capsys.readouterr()
        assert main(["perf", "compare", "query-serial"]) == 1
        err = capsys.readouterr().err
        assert "query_latency_modeled (changed)" in err

    def test_exact_output_change_fails_gate(self, results_dir):
        assert main(["perf", "run", "ingest-serial"]) == 0
        _tamper("ingest-serial", "records_ingested", shift=1.0)
        assert main(["perf", "compare", "ingest-serial"]) == 1

    def test_stale_row_kind_fails_gate_with_rerecord_hint(
        self, results_dir, capsys
    ):
        assert main(["perf", "run", "ingest-serial"]) == 0
        path = baseline_path("ingest-serial")
        doc = json.loads(path.read_text())
        # e.g. a wall-clock or virtual-tick row from an old checkout
        doc["rows"].append({"metric": "ingest_wall_s", "kind": "wall",
                            "unit": "s", "value": 0.04, "tolerance": 0.25})
        path.write_text(json.dumps(doc))
        assert main(["perf", "compare", "ingest-serial"]) == 1
        err = capsys.readouterr().err
        assert "ingest_wall_s (missing)" in err
        assert "re-record the baseline (`carp perf run ingest-serial`)" in err

    def test_missing_baseline_fails(self, results_dir, capsys):
        assert main(["perf", "compare", "ingest-serial"]) == 1
        assert "no baseline" in capsys.readouterr().err


class TestProfileIntegration:
    def test_run_commits_profile_baseline(self, results_dir, capsys):
        assert main(["perf", "run", "ingest-serial"]) == 0
        path = profile_baseline_path("ingest-serial")
        assert path.is_file()
        assert path.with_suffix(".folded").is_file()
        doc = json.loads(path.read_text())
        assert doc["schema"] == "carp-profile-v2"
        assert doc["totals"]["records"] > 0
        # the run reconciled exactly, and the gate metric records that
        baseline = json.loads(baseline_path("ingest-serial").read_text())
        reconcile = next(
            r for r in baseline["rows"]
            if r["metric"] == "profile_reconcile_errors"
        )
        assert reconcile == {"metric": "profile_reconcile_errors",
                             "unit": "errors", "value": 0.0}

    @pytest.mark.parametrize("suffix", [".json", ".folded"])
    def test_tampered_profile_alone_fails_gate(self, results_dir, capsys,
                                               suffix):
        """Every row equal, one committed profile rendering changed:
        the byte-for-byte profile check blocks and writes the diff."""
        assert main(["perf", "run", "ingest-serial"]) == 0
        path = profile_baseline_path("ingest-serial").with_suffix(suffix)
        if suffix == ".json":
            doc = json.loads(path.read_text())
            doc["frames"][0]["count"] += 1
            path.write_text(json.dumps(doc))
        else:
            path.write_text(path.read_text() + "extra;frame 1\n")
        capsys.readouterr()
        json_out = results_dir / "cmp.json"
        assert main(["perf", "compare", "ingest-serial",
                     "--json", str(json_out)]) == 1
        err = capsys.readouterr().err
        assert "ingest-serial.profile (changed)" in err
        diff_path = (results_dir / "profile-diffs"
                     / "ingest-serial.profile-diff.json")
        assert f"diff profile: {diff_path}" in err
        doc = json.loads(json_out.read_text())
        workload = doc["workloads"][0]
        assert workload["profile"] == "changed"
        assert workload["blocking"] is True
        assert {m["status"] for m in workload["metrics"]} == {"ok"}

    def test_gate_failure_blames_injected_hot_span(self, results_dir,
                                                   capsys):
        """A tripped gate names the diff artifact and the hot path.

        Tampering one exact row and the committed baseline profile at
        its busiest frame simulates a change localized to one span
        path; the compare failure output must name the diff-profile
        artifact and put that path first in the inline blame lines.
        """
        assert main(["perf", "run", "ingest-serial"]) == 0
        _tamper("ingest-serial", "ssts_written", shift=-1.0)
        path = profile_baseline_path("ingest-serial")
        doc = json.loads(path.read_text())
        hot = max(doc["frames"], key=lambda f: f["count"])
        hot["count"] -= 5
        hot["bytes"] -= 100
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["perf", "compare", "ingest-serial"]) == 1
        err = capsys.readouterr().err
        diff_path = (results_dir / "profile-diffs"
                     / "ingest-serial.profile-diff.json")
        assert f"diff profile: {diff_path}" in err
        blame = [line for line in err.splitlines()
                 if "changed span path" in line]
        assert blame and ";".join(hot["stack"]) in blame[0]
        assert "(+5 spans, +100 B)" in blame[0]
        diff_doc = json.loads(diff_path.read_text())
        assert diff_doc["schema"] == "carp-profile-diff-v2"
        assert diff_doc["entries"][0]["stack"] == hot["stack"]
        assert diff_doc["entries"][0]["count_delta"] == 5
        assert diff_doc["entries"][0]["bytes_delta"] == 100

    def test_gate_failure_without_profile_baseline_notes_it(
            self, results_dir, capsys):
        """A missing committed profile blocks on its own, every row
        equal, and the diff against nothing is still written."""
        assert main(["perf", "run", "ingest-serial"]) == 0
        profile_baseline_path("ingest-serial").unlink()
        capsys.readouterr()
        assert main(["perf", "compare", "ingest-serial"]) == 1
        err = capsys.readouterr().err
        assert "no baseline profile" in err
        assert "ingest-serial.profile (missing)" in err
        assert "re-record the baseline (`carp perf run ingest-serial`)" in err
        assert (results_dir / "profile-diffs"
                / "ingest-serial.profile-diff.json").is_file()

"""The serve-mixed perf workload and the carp serve CLI: run-to-run
determinism, the committed baseline, and artifact production."""

from __future__ import annotations

import json

from repro.cli import main
from repro.perf.harness import run_workload
from repro.perf.workloads import WORKLOADS


class TestServeWorkload:
    def test_non_wall_metrics_deterministic(self):
        spec = WORKLOADS["serve-mixed"]
        first = {m.name: m for m in run_workload(spec).metrics}
        second = {m.name: m for m in run_workload(spec).metrics}
        for name, metric in first.items():
            assert second[name].value == metric.value, name
        assert first["serve_requests"].value > 0
        # the mixed phase really exercised both cache outcomes and the
        # deadline phase really timed out
        assert first["serve_cache_hits"].value > 0
        assert first["serve_cache_misses"].value > 0
        assert first["serve_deadline_exceeded"].value > 0
        assert first["serve_rejected"].value == 0

    def test_committed_baseline_matches(self, capsys):
        """The checked-in results/baselines/serve-mixed.json must stay
        in sync with what the workload actually produces."""
        assert main(["perf", "compare", "serve-mixed"]) == 0
        out = capsys.readouterr().out
        assert "serve_payload_digest" in out
        assert "serve_latency_p99" in out


class TestServeCli:
    def test_run_reports_and_persists_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "obs"
        report_path = tmp_path / "serve-report.json"
        rc = main(["serve",
            "--out", str(out_dir), "--json", str(report_path)
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "carp-serve: serve-mixed" in out
        assert "latency_p99" in out
        for artifact in ("metrics.json", "trace.json", "telemetry.jsonl"):
            assert (out_dir / artifact).is_file(), artifact
        doc = json.loads(report_path.read_text())
        assert doc["requests"] == doc["ok"] + doc["deadline_exceeded"]
        assert doc["errors"] == 0 and doc["rejected"] == 0
        assert doc["cache_hits"] + doc["cache_misses"] == doc["requests"]
        assert doc["engine_queries"] == doc["cache_misses"]
        assert doc["latency_p99"] >= doc["latency_p50"] > 0
        # the telemetry stream carries the serve histogram the health
        # policy's p99 rule gates on
        lines = [
            json.loads(line)
            for line in (out_dir / "telemetry.jsonl").read_text().splitlines()
        ]
        assert any(
            "serve.latency" in sample.get("histograms", {})
            for sample in lines
        )

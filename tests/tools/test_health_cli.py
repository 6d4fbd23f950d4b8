"""``carp health`` end to end: breach gating over real telemetry."""

from __future__ import annotations

import json
from pathlib import Path

from repro.api import Session
from repro.cli import main
from repro.core.config import CarpOptions
from repro.query.request import QueryRequest
from repro.traces.vpic import VpicTraceSpec, generate_timestep

REPO = Path(__file__).resolve().parents[2]
DEFAULT_POLICY = REPO / "configs" / "health_default.json"

OPTIONS = CarpOptions(
    pivot_count=32,
    oob_capacity=32,
    renegotiations_per_epoch=2,
    memtable_records=256,
    round_records=128,
    value_size=8,
)


def _telemetry_run(out_dir: Path) -> Path:
    spec = VpicTraceSpec(nranks=4, particles_per_rank=400, value_size=8,
                         seed=17)
    with Session(spec.nranks, out_dir, OPTIONS, record=True,
                 telemetry=True) as session:
        session.ingest_epoch(0, generate_timestep(spec, 0))
        store = session.store()
        (epoch,) = store.epochs()
        lo, hi = store.key_range(epoch)
        session.query(
            QueryRequest(lo=lo, hi=lo + (hi - lo) / 8, epoch=epoch)
        )
    return out_dir / "telemetry.jsonl"


def _policy_file(tmp_path: Path, rules: list[dict]) -> Path:
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"name": "seeded", "rules": rules}))
    return path


def test_clean_run_passes_default_policy(tmp_path, capsys):
    telemetry = _telemetry_run(tmp_path / "out")
    rc = main(["health", str(telemetry), "--policy", str(DEFAULT_POLICY)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 breach(es)" in out


def test_seeded_breach_exits_nonzero(tmp_path, capsys):
    telemetry = _telemetry_run(tmp_path / "out")
    # impossible bar: any ingest breaches a zero-record ceiling
    policy = _policy_file(tmp_path, [
        {"selector": "counters.carp.records_ingested", "max": 0,
         "description": "seeded breach"},
    ])
    rc = main(["health", str(telemetry), "--policy", str(policy)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "1 breach(es)" in out
    assert "BREACH" in out


def test_json_report_written(tmp_path):
    telemetry = _telemetry_run(tmp_path / "out")
    report_path = tmp_path / "health" / "report.json"
    rc = main(["health",
        str(telemetry), "--policy", str(DEFAULT_POLICY),
        "--json", str(report_path),
    ])
    assert rc == 0
    doc = json.loads(report_path.read_text())
    assert doc["ok"] is True
    assert doc["policy"] == "carp-default"
    assert {r["status"] for r in doc["results"]} <= {"ok", "skipped"}


def test_strict_skips_fails_on_unresolved_selector(tmp_path, capsys):
    telemetry = _telemetry_run(tmp_path / "out")
    policy = _policy_file(tmp_path, [
        {"selector": "counters.never.emitted", "max": 0},
    ])
    assert main(["health", str(telemetry), "--policy", str(policy)]) == 0
    rc = main(["health",
        str(telemetry), "--policy", str(policy), "--strict-skips",
    ])
    assert rc == 1
    assert "unresolved selectors" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path, capsys):
    telemetry = _telemetry_run(tmp_path / "out")
    missing_policy = tmp_path / "nope.json"
    assert main(["health", str(telemetry), "--policy",
                 str(missing_policy)]) == 2
    bad_policy = _policy_file(tmp_path, [])
    bad_policy.write_text("{not json")
    assert main(["health", str(telemetry), "--policy", str(bad_policy)]) == 2
    assert main(["health", str(tmp_path / "missing.jsonl"), "--policy",
                 str(DEFAULT_POLICY)]) == 2
    err = capsys.readouterr().err
    assert "cannot load policy" in err
    assert "cannot read telemetry" in err


def test_truncated_stream_is_a_usage_error(tmp_path, capsys):
    telemetry = _telemetry_run(tmp_path / "out")
    clipped = tmp_path / "clipped.jsonl"
    text = telemetry.read_text()
    clipped.write_text(text[: len(text) // 2])
    rc = main(["health", str(clipped), "--policy", str(DEFAULT_POLICY)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err

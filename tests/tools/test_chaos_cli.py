"""The ``carp-chaos`` CLI: exit codes, bundles, scratch handling."""

import json

from repro.faults import chaos
from repro.faults.plan import FaultPlan
from repro.tools.chaos_cli import main


def test_passing_seeds_exit_zero(tmp_path, capsys):
    rc = main(["--seeds", "2", "--out", str(tmp_path / "scratch")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "2 seed(s)" in captured.out
    assert "0 failed" in captured.out


def test_keep_retains_scratch_directories(tmp_path):
    out = tmp_path / "scratch"
    rc = main(["--seeds", "1", "--out", str(out), "--keep"])
    assert rc == 0
    assert {p.name for p in out.iterdir()} == {"seed0-ref", "seed0-run"}


def test_scratch_removed_for_passing_seeds(tmp_path):
    out = tmp_path / "scratch"
    rc = main(["--seeds", "1", "--out", str(out)])
    assert rc == 0
    assert list(out.iterdir()) == []


def test_nonpositive_seed_count_rejected(capsys):
    assert main(["--seeds", "0"]) == 2
    assert "--seeds" in capsys.readouterr().err


def test_failing_seed_writes_repro_bundle(tmp_path, monkeypatch, capsys):
    def fake_run_seed(seed, base_dir):
        result = chaos.SeedResult(seed=seed, plan=FaultPlan(seed=seed))
        result.failures.append("rank 0: COMMITTED DATA LOST (synthetic)")
        return result

    monkeypatch.setattr(chaos, "run_seed", fake_run_seed)
    bundles = tmp_path / "bundles"
    rc = main(
        [
            "--seeds", "3",
            "--seed-start", "40",
            "--out", str(tmp_path / "scratch"),
            "--bundle-dir", str(bundles),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "failing seeds: 40, 41, 42" in captured.err
    bundle = json.loads((bundles / "chaos-seed-41.json").read_text())
    assert bundle["seed"] == 41
    assert bundle["plan"] == {"seed": 41, "specs": []}
    assert any("COMMITTED DATA LOST" in f for f in bundle["failures"])

"""carp profile record: folds archived artifacts, byte-stable.

The CLI never runs a workload — everything here operates on artifact
directories built by hand (exact, fast) plus one real ``carp trace``
recording for the end-to-end exact-reconciliation path.
"""

from __future__ import annotations

import json

from repro.cli import main


def _events(extra_flush_child: bool = False) -> list[dict]:
    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "flush"}},
        {"name": "flush", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1,
         "args": {"records": 10}},
    ]
    if extra_flush_child:
        # the parent's span count and bytes are unchanged, so the diff
        # blames the checksum frame alone
        events += [
            {"name": "checksum", "ph": "B", "ts": 0.2, "pid": 1, "tid": 1,
             "args": {}},
            {"ph": "E", "ts": 0.9, "pid": 1, "tid": 1, "args": {}},
        ]
    events.append(
        {"ph": "E", "ts": 1.5, "pid": 1, "tid": 1, "args": {"bytes": 100}}
    )
    return events


def _write_artifacts(directory, *, records=10, bytes_written=100,
                     hot_span=False, metrics=True):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "trace.json").write_text(
        json.dumps({"traceEvents": _events(hot_span)})
    )
    if metrics:
        (directory / "metrics.json").write_text(json.dumps({
            "counters": {
                "koidb.records_in": records,
                "koidb.bytes_written": bytes_written,
            },
        }))
    return directory


class TestRecord:
    def test_writes_profile_and_reconciles_exactly(self, tmp_path, capsys):
        d = _write_artifacts(tmp_path / "run")
        assert main(["profile", "record", str(d)]) == 0
        out = capsys.readouterr().out
        assert "profile totals match metrics counters exactly" in out
        assert (d / "profile.json").is_file()
        assert (d / "profile.folded").is_file()
        doc = json.loads((d / "profile.json").read_text())
        assert doc["schema"] == "carp-profile-v2"
        assert doc["totals"]["records"] == 10

    def test_repeat_invocations_are_byte_identical(self, tmp_path, capsys):
        d = _write_artifacts(tmp_path / "run")
        assert main(["profile", "record", str(d)]) == 0
        first = ((d / "profile.json").read_bytes(),
                 (d / "profile.folded").read_bytes())
        assert main(["profile", "record", str(d)]) == 0
        second = ((d / "profile.json").read_bytes(),
                  (d / "profile.folded").read_bytes())
        assert second == first

    def test_metric_drift_exits_nonzero(self, tmp_path, capsys):
        d = _write_artifacts(tmp_path / "run", bytes_written=101)
        assert main(["profile", "record", str(d)]) == 1
        err = capsys.readouterr().err
        assert "reconcile" in err and "koidb.bytes_written" in err
        # the profile is still written — it is the evidence
        assert (d / "profile.json").is_file()

    def test_missing_metrics_degrades_to_warning(self, tmp_path, capsys):
        d = _write_artifacts(tmp_path / "run", metrics=False)
        assert main(["profile", "record", str(d)]) == 0
        captured = capsys.readouterr()
        assert "reconciliation skipped" in captured.err
        assert "profile totals match" not in captured.out
        assert (d / "profile.json").is_file()

    def test_missing_trace_exits_two(self, tmp_path, capsys):
        assert main(["profile", "record", str(tmp_path / "nope")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestEndToEnd:
    def test_carp_trace_recording_reconciles_exactly(self, tmp_path,
                                                     capsys):
        obs_dir = tmp_path / "obs"
        assert main(["trace",
            "-o", str(obs_dir), "--ranks", "4", "--epochs", "2",
            "--records", "300",
        ]) == 0
        capsys.readouterr()
        assert main(["profile", "record", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "profile totals match metrics counters exactly" in out
        folded = (obs_dir / "profile.folded").read_text()
        # real phases show up in the collapsed stacks
        assert any(line.startswith("flush;") for line in folded.splitlines())
        assert any(line.startswith("route;") for line in folded.splitlines())

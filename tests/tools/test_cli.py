"""The ``carp`` dispatcher, and end-to-end tests for the
artifact-equivalent tools."""

import csv
import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.cli import SUBCOMMANDS, main
from repro.tools.range_runner import options_from_args, reshard
from repro.core.carp import CarpRun
from repro.core.config import TEST_OPTIONS, CarpOptions
from repro.core.records import RecordBatch
from repro.query.engine import PartitionedStore
from repro.storage.log import LogReader, list_logs
from repro.traces import io as trace_io
from repro.traces.vpic import VpicTraceSpec, generate_timestep

SPEC = VpicTraceSpec(nranks=8, particles_per_rank=500,
                     timesteps=(200, 2000), seed=31, value_size=8)

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"

#: The paper artifact's binaries, kept as aliases of their subcommand.
ALIASES = {
    "carp-range-runner": ("range_runner_alias", "range-runner"),
    "carp-compactor": ("compactor_alias", "compactor"),
    "carp-range-reader": ("range_reader_alias", "range-reader"),
}


def _console_scripts() -> dict[str, str]:
    """``[project.scripts]`` of pyproject.toml: name -> ``module:attr``."""
    section = PYPROJECT.read_text().split("[project.scripts]\n", 1)[1]
    section = section.split("\n[", 1)[0]
    return dict(re.findall(r'^([\w-]+) = "([\w.:]+)"$', section, re.M))


class TestDispatcher:
    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_help_exits_zero(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert f"usage: carp {name}" in capsys.readouterr().out

    def test_console_scripts_resolve_to_callables(self):
        scripts = _console_scripts()
        assert set(scripts) == {"carp", *ALIASES}
        for target in scripts.values():
            module, attr = target.split(":")
            assert callable(getattr(importlib.import_module(module), attr))

    @pytest.mark.parametrize("script", sorted(ALIASES))
    def test_alias_forwards_argv_unchanged(self, script, monkeypatch):
        func, subcommand = ALIASES[script]
        assert _console_scripts()[script] == f"repro.cli:{func}"
        seen = []
        monkeypatch.setattr(cli, "main", lambda argv: seen.append(argv) or 7)
        argv = ["-i", "in dir", "-o", "out", "--flag", "--", "-x"]
        monkeypatch.setattr(sys, "argv", [script, *argv])
        assert getattr(cli, func)() == 7
        assert seen == [[subcommand, *argv]]

    def test_python_dash_m_repro_is_the_carp_command(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fsck", "--help"],
            capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: carp fsck")

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_trace")
    for i, ts in enumerate(SPEC.timesteps):
        trace_io.write_timestep(d, ts, generate_timestep(SPEC, i))
    return d


@pytest.fixture(scope="module")
def carp_dir(trace_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_carp")
    rc = main(["range-runner",
        "-i", str(trace_dir), "-o", str(out), "-n", "4",
        "--pivots", "64", "--oob", "64", "--memtable", "256",
    ])
    assert rc == 0
    return out


class TestReshard:
    def test_round_robin(self):
        streams = [
            RecordBatch.from_keys(np.full(10, r, np.float32), rank=r,
                                  value_size=8)
            for r in range(6)
        ]
        out = reshard(streams, 4)
        assert len(out) == 4
        assert [len(b) for b in out] == [20, 20, 10, 10]

    def test_total_preserved(self):
        streams = [
            RecordBatch.from_keys(np.zeros(7, np.float32), rank=r,
                                  value_size=8)
            for r in range(3)
        ]
        assert sum(len(b) for b in reshard(streams, 8)) == 21


class TestRangeRunner:
    def test_defaults_are_carp_options(self):
        """With no tuning flags the runner builds ``CarpOptions``' defaults
        (bar the trace's 8-byte payloads)."""
        parser = cli.build_parser()
        args = parser.parse_args(["range-runner", "-i", "t", "-o", "o"])
        assert options_from_args(args) == CarpOptions(value_size=8)

    def test_produces_koidb_logs(self, carp_dir):
        from repro.storage.log import list_logs

        assert len(list_logs(carp_dir)) == 4

    def test_all_records_stored(self, carp_dir):
        from repro.query.engine import PartitionedStore

        with PartitionedStore(carp_dir) as store:
            assert store.total_records(0) == 4000
            assert store.total_records(1) == 4000

    def test_missing_trace_errors(self, tmp_path, capsys):
        rc = main(["range-runner", "-i", str(tmp_path / "nope"), "-o",
                   str(tmp_path / "out")])
        assert rc == 2

    def test_unknown_timestep_errors(self, trace_dir, tmp_path):
        rc = main(["range-runner",
            "-i", str(trace_dir), "-o", str(tmp_path / "out"),
            "--timesteps", "999",
        ])
        assert rc == 2

    def test_timestep_subset(self, trace_dir, tmp_path):
        out = tmp_path / "subset"
        rc = main(["range-runner",
            "-i", str(trace_dir), "-o", str(out), "-n", "4",
            "--oob", "64", "--timesteps", "2000",
        ])
        assert rc == 0
        from repro.query.engine import PartitionedStore

        with PartitionedStore(out) as store:
            assert store.epochs() == [0]


class TestCompactor:
    def test_compact_single_epoch(self, carp_dir, tmp_path):
        out = tmp_path / "sorted"
        rc = main(["compactor", "-i", str(carp_dir), "-o", str(out), "-e", "0"])
        assert rc == 0
        assert (out / "0").is_dir()

    def test_compact_all(self, carp_dir, tmp_path):
        out = tmp_path / "sorted_all"
        rc = main(["compactor", "-i", str(carp_dir), "-o", str(out), "--all"])
        assert rc == 0
        assert (out / "0").is_dir() and (out / "1").is_dir()

    def test_missing_input_errors(self, tmp_path):
        rc = main(["compactor", "-i", str(tmp_path / "nope"), "-o",
                   str(tmp_path / "out"), "-e", "0"])
        assert rc == 2

    def test_failed_epoch_task_exits_two(self, carp_dir, tmp_path, capsys):
        # damage inside an SST is found by the per-log read task; the
        # CLI reports the executor error instead of a traceback
        broken = tmp_path / "broken"
        shutil.copytree(carp_dir, broken)
        log = list_logs(broken)[0]
        with LogReader(log) as reader:
            entry = reader.entries[0]
        raw = bytearray(log.read_bytes())
        raw[entry.offset + entry.length // 2] ^= 0xFF
        log.write_bytes(bytes(raw))
        rc = main(["compactor", "-i", str(broken), "-o", str(tmp_path / "out"),
                   "--all"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def three_epoch_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_three_epochs")
    rng = np.random.default_rng(3)
    with CarpRun(2, out, TEST_OPTIONS) as run:
        for epoch in range(3):
            run.ingest_epoch(epoch, [
                RecordBatch.from_keys(rng.random(300).astype(np.float32),
                                      rank=r, value_size=8)
                for r in range(2)
            ])
    return out


class TestRangeReader:
    def test_analyze(self, carp_dir, capsys):
        rc = main(["range-reader", "-i", str(carp_dir), "-a"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "median selectivity" in out
        assert "epochs: [0, 1]" in out

    def test_query(self, carp_dir, capsys):
        rc = main(["range-reader", "-i", str(carp_dir), "-q", "-e", "0",
                   "-x", "0.0", "-y", "100.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "matched 4000 records" in out

    def test_query_unknown_epoch_exits_two(self, three_epoch_dir, capsys):
        rc = main(["range-reader", "-i", str(three_epoch_dir), "-q",
                   "-e", "7", "-x", "0.0", "-y", "1.0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "matched" not in captured.out
        assert "error: epoch 7 is not committed" in captured.err
        assert "[0, 1, 2]" in captured.err

    def test_batch_unknown_epoch_exits_two(self, three_epoch_dir, tmp_path,
                                           capsys):
        batch = tmp_path / "batch.csv"
        batch.write_text("0,0.1,0.5\n7,0.1,0.5\n")
        qlog = tmp_path / "qlog.csv"
        rc = main(["range-reader", "-i", str(three_epoch_dir), "-b",
                   str(batch), "--querylog", str(qlog)])
        assert rc == 2
        assert "error: epoch 7 is not committed" in capsys.readouterr().err
        assert not qlog.exists()

    def test_query_missing_args(self, carp_dir, capsys):
        rc = main(["range-reader", "-i", str(carp_dir), "-q"])
        assert rc == 2

    def test_batch(self, carp_dir, tmp_path, capsys):
        batch = tmp_path / "batch.csv"
        batch.write_text("0,0.1,0.5\n1,0.1,0.5\n")
        qlog = tmp_path / "qlog.csv"
        rc = main(["range-reader", "-i", str(carp_dir), "-b", str(batch),
                   "--querylog", str(qlog)])
        assert rc == 0
        rows = list(csv.reader(qlog.read_text().splitlines()))
        assert len(rows) == 3  # header + 2 queries

    def test_executor_flag_is_a_usage_error(self, carp_dir):
        # queries never enter an executor, so the reader has no such flag
        with pytest.raises(SystemExit) as exc:
            main(["range-reader", "-i", str(carp_dir), "-a", "--executor", "process"])
        assert exc.value.code == 2

    def test_missing_store_errors(self, tmp_path):
        rc = main(["range-reader", "-i", str(tmp_path / "nope"), "-a"])
        assert rc == 2

    def test_torn_log_exits_two(self, carp_dir, tmp_path, capsys):
        torn = _torn_copy(carp_dir, tmp_path)
        rc = main(["range-reader", "-i", str(torn), "-a"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "see carp fsck" in err
        assert "Traceback" not in err


class TestTracegen:
    def test_vpic_trace_generated(self, tmp_path):
        rc = main(["tracegen",
            "-o", str(tmp_path / "t"), "--workload", "vpic",
            "--ranks", "4", "--records", "50",
            "--timesteps", "200", "2000",
        ])
        assert rc == 0
        assert trace_io.list_timesteps(tmp_path / "t") == [200, 2000]
        assert len(trace_io.list_ranks(tmp_path / "t", 200)) == 4

    def test_amr_trace_generated(self, tmp_path):
        rc = main(["tracegen",
            "-o", str(tmp_path / "t"), "--workload", "amr",
            "--ranks", "2", "--records", "30",
        ])
        assert rc == 0
        assert len(trace_io.list_timesteps(tmp_path / "t")) >= 1

    def test_bad_geometry_errors(self, tmp_path):
        rc = main(["tracegen", "-o", str(tmp_path / "t"), "--ranks", "0"])
        assert rc == 2

    def test_chains_into_range_runner(self, tmp_path):
        assert main(["tracegen",
            "-o", str(tmp_path / "t"), "--ranks", "4", "--records", "200",
            "--timesteps", "200",
        ]) == 0
        assert main(["range-runner",
            "-i", str(tmp_path / "t"), "-o", str(tmp_path / "out"),
            "-n", "2", "--oob", "64", "--memtable", "128",
        ]) == 0
        from repro.query.engine import PartitionedStore

        with PartitionedStore(tmp_path / "out") as store:
            assert store.total_records(0) == 800


def _torn_copy(store: Path, tmp_path: Path) -> Path:
    """A copy of ``store`` with garbage appended to its first log."""
    torn = tmp_path / "torn"
    shutil.copytree(store, torn)
    with open(list_logs(torn)[0], "ab") as fh:
        fh.write(b"\xde\xad" * 40)
    return torn


class TestExplainCli:
    def test_reconciles_and_exits_zero(self, carp_dir, capsys):
        rc = main(["explain", str(carp_dir), "--lo", "0.5", "--hi", "2.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "EXPLAIN epoch" in out
        assert "reconciliation: explain cost == measured QueryCost" in out

    def test_json_report_verified(self, carp_dir, tmp_path, capsys):
        import json

        path = tmp_path / "explain.json"
        rc = main(["explain", str(carp_dir), "--json", str(path),
                   "--keys-only"])
        assert rc == 0
        assert f"report: {path}" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["verified"] is True
        assert doc["keys_only"] is True
        assert doc["logs"]
        totals = sum(l["bytes_read"] for l in doc["logs"])
        assert totals == doc["cost"]["bytes_read"]

    def test_bad_epoch_errors(self, carp_dir, capsys):
        rc = main(["explain", str(carp_dir), "--epoch", "99"])
        assert rc == 2
        # the message every read surface prints (resolve_epoch)
        assert "error: epoch 99 is not committed in" in (
            capsys.readouterr().err
        )

    def test_default_epoch_is_the_latest(self, carp_dir, capsys):
        with PartitionedStore(carp_dir) as store:
            latest = store.epochs()[-1]
        assert latest > 0
        assert main(["explain", str(carp_dir)]) == 0
        assert f"EXPLAIN epoch {latest}" in capsys.readouterr().out

    def test_missing_store_errors(self, tmp_path):
        assert main(["explain", str(tmp_path / "nope")]) == 2

    def test_torn_log_exits_two_unless_recovered(self, carp_dir, tmp_path,
                                                 capsys):
        torn = _torn_copy(carp_dir, tmp_path)
        assert main(["explain", str(torn)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "(see carp fsck, or --recover)" in err
        assert main(["explain", str(torn), "--recover"]) == 0
        assert "reconciliation: explain cost" in capsys.readouterr().out

    def test_store_without_sst_exits_two(self, tmp_path, capsys):
        from repro.storage.log import LogWriter, log_name

        with LogWriter(tmp_path / log_name(0)) as writer:
            writer.flush_epoch(0)  # commits an epoch that holds no SST
        assert main(["explain", str(tmp_path)]) == 2
        assert "holds no committed SST" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [("nan", "1.0"), ("0.5", "nan"),
                                        ("2.0", "0.5")])
    def test_bad_range_is_a_usage_error(self, carp_dir, capsys, bounds):
        # one check (check_bounds) rejects NaN and an empty range alike
        lo, hi = bounds
        assert main(["explain", str(carp_dir), "--lo", lo, "--hi", hi]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestTraceCli:
    def test_profile_top_frames_report(self, tmp_path, capsys):
        out_dir = self._recorded(tmp_path, capsys)
        assert (out_dir / "trace.json").is_file()
        # telemetry plane artifacts ride along
        assert (out_dir / "db" / "telemetry.jsonl").is_file()
        assert (out_dir / "db" / "metrics.om").is_file()
        rc = main(["profile",
            "record", str(out_dir), "-o", str(tmp_path / "prof"),
            "--top", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "top 3 frames by span count" in out
        # worker-side flush spans must surface in the ranking
        assert "flush;flush" in out

    def test_top_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--report", str(tmp_path), "--top", "3"])
        assert exc.value.code == 2
        assert "--top" in capsys.readouterr().err

    def test_trace_report_has_no_ticks(self, tmp_path, capsys):
        """carp trace prints carp profile's phase table, no tick column."""
        out_dir = self._recorded(tmp_path, capsys)
        assert main(["trace", "--report", str(out_dir)]) == 0
        report = capsys.readouterr().out
        assert main(["profile",
            "record", str(out_dir), "-o", str(tmp_path / "prof"),
        ]) == 0
        profile_out = capsys.readouterr().out
        assert "ticks" not in report
        phase_table = profile_out.split("\n\n")[0]
        assert phase_table.startswith("spans by phase")
        assert phase_table in report

    def _recorded(self, tmp_path, capsys):
        out_dir = tmp_path / "obs"
        rc = main(["trace",
            "-o", str(out_dir), "--ranks", "4", "--epochs", "2",
            "--records", "300",
        ])
        capsys.readouterr()
        assert rc == 0
        return out_dir

    def test_amr_workload_records(self, tmp_path, capsys):
        rc = main(["trace", "-o", str(tmp_path / "obs"), "--workload", "amr",
                   "--ranks", "4", "--epochs", "2", "--records", "200"])
        capsys.readouterr()
        assert rc == 0

    def test_output_required_without_report(self, capsys):
        assert main(["trace"]) == 2
        assert "-o/--out is required" in capsys.readouterr().err

    def test_report_mode_re_renders(self, tmp_path, capsys):
        out_dir = self._recorded(tmp_path, capsys)
        rc = main(["trace", "--report", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CARP run" in out
        assert "Metrics snapshot" in out
        assert "note:" not in out  # complete artifacts need no caveats

    def test_report_mode_degrades_on_legacy_metrics(self, tmp_path, capsys):
        """A metrics.json without histograms is annotated, not fatal."""
        import json

        out_dir = self._recorded(tmp_path, capsys)
        metrics_path = out_dir / "metrics.json"
        snapshot = json.loads(metrics_path.read_text())
        del snapshot["histograms"]  # simulate a pre-histogram recording
        metrics_path.write_text(json.dumps(snapshot))
        rc = main(["trace", "--report", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "note: legacy snapshot: no 'histograms' section" in out

    def test_report_mode_degrades_on_trace_only_directory(self, tmp_path,
                                                          capsys):
        """Pruned archives keep their span timeline readable.

        A directory holding only ``trace.json`` (metrics and telemetry
        pruned) must render a partial report with a warning — not
        exit 2 — because the span timeline is useful on its own.
        """
        out_dir = self._recorded(tmp_path, capsys)
        (out_dir / "metrics.json").unlink()
        (out_dir / "db" / "telemetry.jsonl").unlink()
        rc = main(["trace", "--report", str(out_dir)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "warning:" in captured.err
        assert "metrics.json" in captured.err
        assert "CARP run" in captured.out  # the report still renders
        assert "report is partial" in captured.out
        assert "telemetry.jsonl missing" in captured.out

    def test_report_mode_missing_artifacts_exit_two(self, tmp_path, capsys):
        assert main(["trace", "--report", str(tmp_path / "nope")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_request_tree_from_archived_trace(self, tmp_path, capsys):
        out_dir = self._recorded(tmp_path, capsys)
        rc = main(["trace",
            "--report", str(out_dir), "--request", "ingest-000001",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Frames for request ingest-000001" in out
        # the cross-worker tree: the driver epoch span plus worker flushes
        assert "ingest;epoch " in out
        assert "flush;flush " in out
        assert "ticks" not in out

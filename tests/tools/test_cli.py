"""The ``carp`` dispatcher, its keep test, and end-to-end tests of the
subcommands that read a CARP store."""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import SUBCOMMANDS, main
from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.obs.profile import Profile
from repro.obs.report import frame_table
from repro.query.engine import PartitionedStore
from repro.storage.log import list_logs
from repro.tools.profile_cli import TOP_FRAMES
from repro.traces import io as trace_io
from repro.traces.vpic import VpicTraceSpec, generate_timestep

SPEC = VpicTraceSpec(nranks=8, particles_per_rank=500,
                     timesteps=(200, 2000), seed=31, value_size=8)

REPO = Path(__file__).resolve().parents[2]
PYPROJECT = REPO / "pyproject.toml"
CI_WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"


def _console_scripts() -> dict[str, str]:
    """``[project.scripts]`` of pyproject.toml: name -> ``module:attr``."""
    section = PYPROJECT.read_text().split("[project.scripts]\n", 1)[1]
    section = section.split("\n[", 1)[0]
    return dict(re.findall(r'^([\w-]+) = "([\w.:]+)"$', section, re.M))


def _ci_run_scripts() -> list[str]:
    """The body of every ``run:`` step in the CI workflow, folded or not."""
    lines = CI_WORKFLOW.read_text().splitlines()
    scripts = []
    for i, line in enumerate(lines):
        m = re.match(r"^(\s*)(?:- )?run: ?(.*)$", line)
        if m is None:
            continue
        indent, rest = len(m.group(1)), m.group(2).strip()
        if rest not in ("|", ">"):
            scripts.append(rest)
            continue
        body = []
        for follow in lines[i + 1:]:
            if follow.strip() and len(follow) - len(follow.lstrip()) <= indent:
                break
            body.append(follow.strip())
        scripts.append("\n".join(body))
    return scripts


class TestDispatcher:
    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_help_exits_zero(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert f"usage: carp {name}" in capsys.readouterr().out

    def test_console_scripts_resolve_to_callables(self):
        scripts = _console_scripts()
        # one console script: every tool is a subcommand of it
        assert scripts == {"carp": "repro.cli:main"}
        for target in scripts.values():
            module, attr = target.split(":")
            assert callable(getattr(importlib.import_module(module), attr))

    def test_every_subcommand_runs_in_a_ci_step(self):
        """A subcommand stays only while something runs it: each name
        in ``SUBCOMMANDS`` must open a ``carp <name>`` command in some
        ``run:`` step of the CI workflow (docs/API.md's keep table)."""
        ran = set()
        for script in _ci_run_scripts():
            ran.update(re.findall(r"(?:^|[\s;(&|])carp ([a-z][\w-]*)",
                                  script))
        assert sorted(set(SUBCOMMANDS) - ran) == []

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
    """The trace replayed through 4 CARP ranks: the 8 trace ranks
    re-sharded round-robin, one epoch per timestep, each epoch's record
    ids offset by ``epoch << 24``."""
    out = tmp_path_factory.mktemp("cli_carp")
    options = CarpOptions(pivot_count=64, oob_capacity=64,
                          memtable_records=256, value_size=8)
    with CarpRun(4, out, options) as run:
        for epoch, ts in enumerate(trace_io.list_timesteps(trace_dir)):
            streams = trace_io.read_timestep(trace_dir, ts, value_size=8,
                                             seq_offset=epoch << 24)
            run.ingest_epoch(epoch, [RecordBatch.concat(streams[r::4])
                                     for r in range(4)])
        run.write_run_manifest()
    return out


class TestRangeReader:
    def test_analyze(self, carp_dir, capsys):
        rc = main(["range-reader", "-i", str(carp_dir), "-a"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "median selectivity" in out
        assert "epochs: [0, 1]" in out

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
        path = tmp_path / "explain.json"
        rc = main(["explain", str(carp_dir), "--json", str(path)])
        assert rc == 0
        assert f"report: {path}" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["verified"] is True
        assert doc["keys_only"] is False
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
        rc = main(["profile", "record", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        profile = Profile.from_doc(
            json.loads((out_dir / "profile.json").read_text()))
        shown = min(TOP_FRAMES, len(profile.frames))
        assert f"top {shown} frames by span count" in out
        # worker-side flush spans must surface in the ranking
        assert "flush;flush" in out
        # the ranking is cut at the top N
        assert "top 3 frames by span count" in frame_table(profile, 3)

    def test_top_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "-o", str(tmp_path), "--top", "3"])
        assert exc.value.code == 2
        assert "--top" in capsys.readouterr().err

    def test_trace_report_has_no_ticks(self, tmp_path, capsys):
        """carp trace prints carp profile's phase table, no tick column."""
        out_dir = tmp_path / "obs"
        assert main(["trace",
            "-o", str(out_dir), "--ranks", "4", "--epochs", "2",
            "--records", "300",
        ]) == 0
        # the report, without the footer of artifact paths (the test's
        # own tmp_path name holds "ticks")
        report = capsys.readouterr().out.split("\ntrace:")[0]
        assert main(["profile", "record", str(out_dir)]) == 0
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

    def test_output_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace"])
        assert exc.value.code == 2
        assert "-o/--out" in capsys.readouterr().err

    def test_request_tree_from_archived_trace(self, tmp_path, capsys):
        out_dir = self._recorded(tmp_path, capsys)
        rc = main(["profile", "record", str(out_dir),
                   "--request", "ingest-000001"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Frames for request ingest-000001" in out
        # the cross-worker tree: the driver epoch span plus worker flushes
        assert "ingest;epoch " in out
        assert "flush;flush " in out
        assert "ticks" not in out

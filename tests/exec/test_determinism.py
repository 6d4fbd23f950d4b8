"""Cross-executor determinism: serial and process runs must be
bit-identical.

This is the contract ``docs/PARALLELISM.md`` promises: for a fixed
seeded trace, every backend produces byte-identical KoiDB logs, equal
query results (keys, rids, and the full measured/modeled cost), and an
identical ``metrics.json`` snapshot.  ``trace.json`` is covered by the
same contract — worker spans are recorded rank-locally and replayed in
rank order — and is asserted separately in
``test_trace_determinism.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.exec import ProcessExecutor, SerialExecutor
from repro.exec.shards import KoiDBProxy
from repro.obs import Obs
from repro.query.engine import PartitionedStore
from repro.storage.compactor import compact_all_epochs
from repro.storage.log import list_logs
from repro.traces.vpic import VpicTraceSpec, generate_timestep

OPTIONS = CarpOptions(
    pivot_count=32,
    oob_capacity=32,
    renegotiations_per_epoch=3,
    memtable_records=256,
    round_records=128,
    value_size=8,
)

EPOCHS = 2

QUERIES = (
    (0, 0.5, 2.0, False),
    (0, -1.0, 0.25, True),
    (1, 1.0, 8.0, False),
)

BACKENDS = {
    "serial": SerialExecutor,
    "process": lambda: ProcessExecutor(2),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _plain(obj):
    """Recursively turn stats tuples into ==-comparable plain data."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [_plain(x) for x in obj]
    return obj


def _run_pipeline(out_dir, make_exec, seed: int) -> dict[str, object]:
    """Ingest + query one seeded trace; return everything comparable."""
    spec = VpicTraceSpec(
        nranks=6, particles_per_rank=600, value_size=8, seed=seed
    )
    obs = Obs.recording()
    with make_exec() as executor:
        with CarpRun(
            spec.nranks, out_dir, OPTIONS, obs=obs, executor=executor
        ) as run:
            epoch_stats = [
                _plain(dataclasses.astuple(
                    run.ingest_epoch(ep, generate_timestep(spec, ep))
                ))
                for ep in range(EPOCHS)
            ]
        logs = {
            p.name: _digest(p.read_bytes()) for p in list_logs(out_dir)
        }
        queries = []
        # the executor ingests only: a query is one code path whatever
        # backend wrote the logs
        with PartitionedStore(out_dir, obs=obs) as store:
            for epoch, lo, hi, keys_only in QUERIES:
                res = store.query(epoch, lo, hi, keys_only=keys_only)
                queries.append(
                    (
                        _digest(res.keys.tobytes()),
                        _digest(res.rids.tobytes()),
                        dataclasses.astuple(res.cost),
                    )
                )
    metrics = json.dumps(obs.metrics.snapshot(), sort_keys=True)
    return {
        "stats": epoch_stats,
        "logs": logs,
        "queries": queries,
        "metrics": metrics,
    }


def _assert_identical(outcomes: dict[str, dict[str, object]]) -> None:
    baseline_name, baseline = next(iter(outcomes.items()))
    for name, outcome in outcomes.items():
        for field in ("stats", "logs", "queries", "metrics"):
            assert outcome[field] == baseline[field], (
                f"{field} diverged: {name} vs {baseline_name}"
            )


@given(seed=st.integers(0, 2**16))
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_pipeline_bit_identical_across_executors(tmp_path_factory, seed):
    outcomes = {}
    for name, make_exec in BACKENDS.items():
        out = tmp_path_factory.mktemp(f"det_{name}")
        outcomes[name] = _run_pipeline(out, make_exec, seed)
    # every log must actually exist and carry data on every backend
    assert all(o["logs"] for o in outcomes.values())
    _assert_identical(outcomes)


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_worker_count_does_not_change_output(tmp_path_factory, workers):
    """Determinism must hold for any pool width, not just the tested one."""
    serial = _run_pipeline(
        tmp_path_factory.mktemp("width_serial"), SerialExecutor, seed=99
    )
    pooled = _run_pipeline(
        tmp_path_factory.mktemp(f"width_{workers}"),
        lambda: ProcessExecutor(workers),
        seed=99,
    )
    _assert_identical({"serial": serial, f"process[{workers}]": pooled})


def test_driver_sees_same_koidb_state_after_every_epoch(tmp_path_factory):
    """One ingest path: the driver always holds proxies, and what they
    report after each epoch's barrier does not depend on the backend."""
    spec = VpicTraceSpec(nranks=6, particles_per_rank=600, value_size=8, seed=4)
    seen = {}
    for name, make_exec in BACKENDS.items():
        out = tmp_path_factory.mktemp(f"proxy_{name}")
        with make_exec() as executor, CarpRun(
            spec.nranks, out, OPTIONS, executor=executor
        ) as run:
            assert all(type(db) is KoiDBProxy for db in run.koidbs)
            seen[name] = []
            for ep in range(EPOCHS):
                run.ingest_epoch(ep, generate_timestep(spec, ep))
                seen[name].append(
                    [(db.stats, db.log.offset) for db in run.koidbs]
                )
    assert seen["process"] == seen["serial"]
    assert all(offset > 0 for _stats, offset in seen["serial"][-1])


def test_compaction_bit_identical_across_executors(tmp_path_factory):
    spec = VpicTraceSpec(nranks=4, particles_per_rank=800, value_size=8, seed=5)
    src = tmp_path_factory.mktemp("compact_src")
    with CarpRun(spec.nranks, src, OPTIONS) as run:
        for ep in range(EPOCHS):
            run.ingest_epoch(ep, generate_timestep(spec, ep))
    hashes = {}
    for name, make_exec in BACKENDS.items():
        out = tmp_path_factory.mktemp(f"compact_{name}")
        with make_exec() as executor:
            dirs = compact_all_epochs(src, out, sst_records=512,
                                      executor=executor)
        assert [d.name for d in dirs] == [str(e) for e in range(EPOCHS)]
        hashes[name] = {
            f"{d.name}/{p.name}": _digest(p.read_bytes())
            for d in dirs
            for p in list_logs(d)
        }
    assert hashes["process"] == hashes["serial"]

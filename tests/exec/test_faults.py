"""Fault injection across executor backends.

Two contracts under test:

* **fault determinism** — the same :class:`FaultPlan` produces
  bit-identical logs, metrics, and query results on every backend
  (serial / process), whether the faults are benign (shuffle
  delay/drop), retried away (task crashes under a retry budget), or
  fatal (storage tears, where the *recovered* logs must agree);
* **bounded retry** — crash retries preserve sticky shard state and
  per-shard ordering, and exhaust into :class:`WorkerCrashError`.

Task functions live at module level so :class:`ProcessExecutor` can
pickle them by reference.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.api import Session
from repro.core.config import CarpOptions
from repro.exec import (
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    WorkerCrashError,
    is_stateful_task,
    stateful_task,
)
from repro.faults.plan import (
    ACTION_DELAY,
    ACTION_DROP,
    SITE_MANIFEST_WRITE,
    SITE_SHUFFLE_SEND,
    SITE_TASK,
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
)
from repro.obs import Obs
from repro.query.request import QueryRequest
from repro.storage.fsck import fsck
from repro.storage.log import list_logs
from repro.traces.vpic import VpicTraceSpec, generate_timestep

OPTIONS = CarpOptions(
    pivot_count=16,
    oob_capacity=32,
    renegotiations_per_epoch=2,
    memtable_records=128,
    round_records=128,
    value_size=8,
    shuffle_delay_rounds=1,
)

EPOCHS = 2
NRANKS = 4

BACKENDS = {
    "serial": lambda retries: SerialExecutor(task_retries=retries),
    "process": lambda retries: ProcessExecutor(2, task_retries=retries),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _streams(epoch: int):
    spec = VpicTraceSpec(
        nranks=NRANKS, particles_per_rank=300, value_size=8, seed=7
    )
    return generate_timestep(spec, epoch)


def _run_session(out_dir, make_exec, plan):
    """One faulted ingest+query pipeline; returns comparable outcomes."""
    obs = Obs.recording()
    crashed = None
    executor = make_exec()
    session = Session(
        NRANKS, out_dir, OPTIONS, obs=obs, executor=executor, faults=plan
    )
    try:
        for epoch in range(EPOCHS):
            session.ingest_epoch(epoch, _streams(epoch))
        queries = []
        for epoch in range(EPOCHS):
            res = session.query(QueryRequest(lo=0.25, hi=4.0, epoch=epoch))
            queries.append(
                (_digest(res.keys.tobytes()), _digest(res.rids.tobytes()))
            )
    except (InjectedCrashError, ExecutorError) as exc:
        crashed = repr(exc)
        queries = None
    finally:
        try:
            session.close()
        except (InjectedCrashError, ExecutorError):
            crashed = crashed or "close"
        executor.close()
    return {
        "crashed": crashed is not None,
        "queries": queries,
        "logs": {p.name: _digest(p.read_bytes()) for p in list_logs(out_dir)},
        "metrics": json.dumps(obs.metrics.snapshot(), sort_keys=True),
        "retries": executor.retries_done,
    }


def _assert_identical(outcomes, fields):
    baseline_name, baseline = next(iter(outcomes.items()))
    for name, outcome in outcomes.items():
        for field in fields:
            assert outcome[field] == baseline[field], (
                f"{field} diverged: {name} vs {baseline_name}"
            )


def test_shuffle_faults_identical_everywhere(tmp_path_factory):
    """Delay/drop faults are lossless and fire identically on every
    backend — logs, metrics.json, and queries all match."""
    plan = FaultPlan(
        seed=0,
        specs=(
            FaultSpec(SITE_SHUFFLE_SEND, 0, 3, 2.0, ACTION_DELAY),
            FaultSpec(SITE_SHUFFLE_SEND, 0, 7, 0.0, ACTION_DROP),
            FaultSpec(SITE_SHUFFLE_SEND, 0, 11, 3.0, ACTION_DELAY),
        ),
    )
    outcomes = {}
    for name, make_exec in BACKENDS.items():
        out = tmp_path_factory.mktemp(f"shuf_{name}")
        outcomes[name] = _run_session(out, lambda: make_exec(0), plan)
    assert not any(o["crashed"] for o in outcomes.values())
    assert all(o["logs"] for o in outcomes.values())
    _assert_identical(outcomes, ("crashed", "logs", "queries", "metrics"))


def test_shuffle_faults_change_nothing_durable(tmp_path_factory):
    """Dropped sends are retransmitted at the epoch drain: the logs
    differ from a fault-free run only in SST grouping, never records."""
    plan = FaultPlan(
        seed=0, specs=(FaultSpec(SITE_SHUFFLE_SEND, 0, 2, 0.0, ACTION_DROP),)
    )
    faulted = _run_session(
        tmp_path_factory.mktemp("drop_faulted"),
        lambda: SerialExecutor(),
        plan,
    )
    clean = _run_session(
        tmp_path_factory.mktemp("drop_clean"), lambda: SerialExecutor(), None
    )
    # same queryable contents even though delivery timing changed
    assert faulted["queries"] == clean["queries"]


def test_task_crashes_retried_away_identically(tmp_path_factory):
    """Planned task crashes under a retry budget: every backend
    retries in-place (sticky shard state intact) and lands on the same
    logs and query results."""
    plan = FaultPlan(
        seed=0,
        specs=(
            FaultSpec(SITE_TASK, 1, 0),
            FaultSpec(SITE_TASK, 2, 2),
        ),
    )
    outcomes = {}
    for name, make_exec in BACKENDS.items():
        out = tmp_path_factory.mktemp(f"task_{name}")
        outcomes[name] = _run_session(out, lambda: make_exec(3), plan)
    assert not any(o["crashed"] for o in outcomes.values())
    _assert_identical(outcomes, ("crashed", "logs", "queries"))
    # the exec.task site lives in koidb_apply, which every backend
    # runs: the same tasks crash and are retried everywhere
    assert outcomes["serial"]["retries"] == outcomes["process"]["retries"] > 0


@pytest.mark.parametrize("kind", [None, "serial"], ids=["unset", "serial"])
def test_env_retry_budget_on_default_executor(tmp_path, monkeypatch, kind):
    """``CARP_TASK_RETRIES`` reaches the executor a ``Session`` builds for
    itself, and that executor is the one ingest runs on."""
    if kind is None:
        monkeypatch.delenv("CARP_EXECUTOR", raising=False)
    else:
        monkeypatch.setenv("CARP_EXECUTOR", kind)
    monkeypatch.setenv("CARP_TASK_RETRIES", "3")
    plan = FaultPlan(seed=0, specs=(FaultSpec(SITE_TASK, 1, 0),))
    with Session(NRANKS, tmp_path / "faulted", OPTIONS, record=True,
                 faults=plan, telemetry=True) as session:
        for epoch in range(EPOCHS):
            session.ingest_epoch(epoch, _streams(epoch))
        assert session.executor.retries_done > 0
    with Session(NRANKS, tmp_path / "clean", OPTIONS) as clean:
        for epoch in range(EPOCHS):
            clean.ingest_epoch(epoch, _streams(epoch))

    def logs(out):
        return {p.name: p.read_bytes() for p in list_logs(out)}

    assert logs(tmp_path / "faulted") == logs(tmp_path / "clean")
    samples = [
        json.loads(line)
        for line in (tmp_path / "faulted" / "telemetry.jsonl").read_text().splitlines()
    ]
    last_epoch = [s for s in samples if s["kind"] == "epoch"][-1]
    final = [s for s in samples if s["kind"] == "final"][-1]
    assert final["derived"]["retries_done"] == last_epoch["derived"]["retries_done"] > 0


def test_storage_crash_recovers_identically(tmp_path_factory):
    """A torn manifest write kills every backend at the same epoch;
    after ``fsck --repair`` the recovered logs are bit-identical."""
    plan = FaultPlan(
        seed=0, specs=(FaultSpec(SITE_MANIFEST_WRITE, 1, 1, arg=0.5),)
    )
    recovered = {}
    for name, make_exec in BACKENDS.items():
        out = tmp_path_factory.mktemp(f"crash_{name}")
        outcome = _run_session(out, lambda: make_exec(3), plan)
        assert outcome["crashed"], name
        report = fsck(out, deep=True, repair=True)
        assert report.ok, (name, report.errors)
        recovered[name] = {
            p.name: _digest(p.read_bytes()) for p in list_logs(out)
        }
    assert recovered["process"] == recovered["serial"]
    # epoch 0 committed everywhere before the epoch-1 tear
    assert len(recovered["serial"]) == NRANKS


# --------------------------------------------------- raw executor retry


def flaky_task(state, fail_times):
    state["calls"] = state.get("calls", 0) + 1
    if state["calls"] <= fail_times:
        raise WorkerCrashError(f"planned crash {state['calls']}")
    return ("ok", state["calls"])


def always_crash_task(state):
    raise WorkerCrashError("always")


def flag_exit_task(state, flag_path):
    # first attempt: leave a marker and die for real; the respawned
    # worker's resubmission sees the marker and succeeds
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("died")
        os._exit(11)
    return "revived"


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_retry_rescues_within_budget(name):
    executor = BACKENDS[name](2)
    try:
        executor.submit(0, flaky_task, 2)
        assert executor.drain() == [("ok", 3)]
        assert executor.retries_done == 2
    finally:
        executor.close()


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_retry_exhaustion_raises_worker_crash(name):
    executor = BACKENDS[name](1)
    try:
        executor.submit(0, always_crash_task)
        with pytest.raises(WorkerCrashError, match="after 1"):
            executor.drain()
    finally:
        executor.close()


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_zero_budget_fails_fast(name):
    executor = BACKENDS[name](0)
    try:
        executor.submit(0, flaky_task, 1)
        with pytest.raises(WorkerCrashError):
            executor.drain()
        assert executor.retries_done == 0
    finally:
        executor.close()


def test_process_executor_respawns_dead_worker(tmp_path):
    flag = str(tmp_path / "died.flag")
    executor = ProcessExecutor(2, task_retries=2)
    try:
        executor.submit(0, flag_exit_task, flag)
        assert executor.drain() == ["revived"]
        assert executor.retries_done >= 1
    finally:
        executor.close()


# ------------------------------------------- worker death vs. durability


@stateful_task
def stateful_exit_task(state):
    os._exit(23)


def echo_task(state, value):
    return value


def report_then_die_task(state, flag_path):
    # first run: report a result, then die for real moments later —
    # the driver may see the death before or after consuming the
    # result, and must end up with exactly one outcome either way
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("died")
        import threading

        threading.Timer(0.05, lambda: os._exit(17)).start()
    return "reported"


def test_koidb_apply_is_marked_stateful():
    from repro.exec.work import compact_epoch_task, koidb_apply

    assert is_stateful_task(koidb_apply)
    assert not is_stateful_task(compact_epoch_task)


def test_dead_worker_with_stateful_task_fails_drain():
    """A real worker-process death with a stateful task in flight must
    fail the drain — never resubmit to a fresh worker whose empty shard
    state would re-open (and truncate) a rank log."""
    executor = ProcessExecutor(2, task_retries=3)
    try:
        executor.submit(0, stateful_exit_task)
        with pytest.raises(WorkerCrashError, match="stateful"):
            executor.drain()
    finally:
        executor.close()


def test_drain_discards_stale_and_unknown_results():
    """Leftover result messages — an unknown ticket, or a superseded
    attempt of a live ticket — are dropped, not returned or counted."""
    from repro.exec.pools import _OK

    executor = ProcessExecutor(1)
    try:
        executor.submit(0, echo_task, "warm")
        assert executor.drain() == ["warm"]
        # forge leftovers ahead of the next round: queue order puts
        # them in front of the real result
        executor._result_q.put((_OK, 99, 0, "ghost", 0))
        executor._result_q.put((_OK, 1, 7, "stale", 0))
        executor.submit(0, echo_task, "real")  # ticket 1, attempt 0
        assert executor.drain() == ["real"]
        assert executor.retries_done == 0
    finally:
        executor.close()


def test_death_after_report_never_duplicates(tmp_path):
    """A worker that enqueues its result and then dies: whether the
    drain consumes the result before or after noticing the death, each
    ticket yields exactly one outcome and later drains stay clean."""
    flag = str(tmp_path / "died.flag")
    executor = ProcessExecutor(1, task_retries=3)
    try:
        executor.submit(0, report_then_die_task, flag)
        assert executor.drain() == ["reported"]
        executor.submit(0, report_then_die_task, flag)
        assert executor.drain() == ["reported"]
    finally:
        executor.close()

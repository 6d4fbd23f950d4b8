"""Executor contract tests, run against both backends.

Task functions live at module level so :class:`ProcessExecutor` can
pickle them by reference — the same constraint real worker tasks
(``repro.exec.work``) obey.
"""

from __future__ import annotations

import argparse
import os
import time

import pytest

from repro.exec import (
    ProcessExecutor,
    SerialExecutor,
    WorkerCrashError,
    WorkerTaskError,
    executor_from_args,
    make_executor,
    resolve_executor,
    worker_of,
)
from repro.exec.factory import add_executor_args

# ------------------------------------------------------------ task fns


def add_task(state, a, b):
    return a + b


def count_task(state):
    state["n"] = state.get("n", 0) + 1
    return state["n"]


def state_id_task(state):
    # stamp the state dict on first touch so later tasks can prove
    # they saw the same mapping
    state.setdefault("stamp", (os.getpid(), id(state)))
    return state["stamp"]


def slow_echo_task(state, delay, value):
    time.sleep(delay)
    return value


def boom_task(state):
    raise ValueError("kaboom")


def exit_task(state):
    os._exit(3)


# ------------------------------------------------------------ fixtures

BACKENDS = {
    "serial": SerialExecutor,
    "process": lambda: ProcessExecutor(2),
}


@pytest.fixture(params=sorted(BACKENDS))
def executor(request):
    exec_ = BACKENDS[request.param]()
    yield exec_
    exec_.close()


# ------------------------------------------------------------ worker_of


def test_worker_of_is_sticky_modulo():
    assert [worker_of(s, 3) for s in range(7)] == [0, 1, 2, 0, 1, 2, 0]


def test_worker_of_validates():
    with pytest.raises(ValueError):
        worker_of(0, 0)
    with pytest.raises(ValueError):
        worker_of(-1, 2)


# ------------------------------------------------------- contract tests


def test_drain_returns_submission_order(executor):
    # later-submitted tasks finish *first* on the pools (zero delay vs
    # a long one on a different worker); drain must reorder anyway
    executor.submit(0, slow_echo_task, 0.2, "first")
    executor.submit(1, slow_echo_task, 0.0, "second")
    executor.submit(2, slow_echo_task, 0.0, "third")
    assert executor.drain() == ["first", "second", "third"]


def test_empty_drain(executor):
    assert executor.drain() == []


def test_state_is_sticky_across_drains(executor):
    executor.submit(5, count_task)
    executor.submit(5, count_task)
    assert executor.drain() == [1, 2]
    executor.submit(5, count_task)
    assert executor.drain() == [3]


def test_state_is_per_shard(executor):
    executor.submit(0, state_id_task)
    executor.submit(1, state_id_task)
    executor.submit(0, state_id_task)
    a1, b, a2 = executor.drain()
    assert a1 == a2  # same shard, same mapping
    assert a1 != b  # different shard, different mapping


def test_map_preserves_argument_order(executor):
    out = executor.map(add_task, [(i, 10 * i) for i in range(8)])
    assert out == [11 * i for i in range(8)]


def test_task_error_carries_worker_traceback(executor):
    executor.submit(0, add_task, 1, 2)
    executor.submit(1, boom_task)
    executor.submit(2, add_task, 3, 4)
    with pytest.raises(WorkerTaskError) as exc_info:
        executor.drain()
    err = exc_info.value
    assert err.shard == 1
    assert "kaboom" in str(err)
    assert "boom_task" in err.traceback_text


def test_executor_usable_after_task_error(executor):
    executor.submit(0, boom_task)
    with pytest.raises(WorkerTaskError):
        executor.drain()
    executor.submit(0, add_task, 2, 2)
    assert executor.drain() == [4]


def test_first_failure_in_submission_order_wins(executor):
    executor.submit(1, boom_task)
    executor.submit(0, boom_task)
    with pytest.raises(WorkerTaskError) as exc_info:
        executor.drain()
    assert exc_info.value.shard == 1


def test_failure_does_not_stop_later_tasks(executor):
    # shard 0 fails; the task submitted after it on shard 1 must still
    # run (a pool worker would not know about the failure), and the
    # drain reports shard 0's error
    executor.submit(0, boom_task)
    executor.submit(1, count_task)
    with pytest.raises(WorkerTaskError) as exc_info:
        executor.drain()
    assert exc_info.value.shard == 0
    executor.submit(1, count_task)
    assert executor.drain() == [2]  # sticky state saw the first run


def test_context_manager_closes(tmp_path):
    with ProcessExecutor(2) as exec_:
        assert exec_.map(add_task, [(1, 1)]) == [2]
    with pytest.raises(Exception):
        exec_.submit(0, add_task, 1, 1)


def test_close_is_idempotent(executor):
    executor.close()
    executor.close()


def test_worker_crash_detected():
    exec_ = ProcessExecutor(1)
    try:
        exec_.submit(0, exit_task)
        with pytest.raises(WorkerCrashError):
            exec_.drain()
    finally:
        exec_.close()


def test_lazy_spawn_makes_unused_pools_free():
    exec_ = ProcessExecutor(4)
    assert exec_._procs == []  # nothing spawned yet
    exec_.close()


# ----------------------------------------------------- factory / config


def test_make_executor_kinds():
    assert isinstance(make_executor("serial"), SerialExecutor)
    assert isinstance(make_executor("process", 2), ProcessExecutor)
    for kind in ("gpu", "thread"):
        with pytest.raises(ValueError, match=r"\('serial', 'process'\)"):
            make_executor(kind)


def _cli_args(argv):
    parser = argparse.ArgumentParser()
    add_executor_args(parser)
    return parser.parse_args(argv)


def test_default_executor_without_env(monkeypatch):
    """No env: a fresh SerialExecutor the consumer owns, carrying the
    environment's retry budget; every resolution is a new instance."""
    monkeypatch.delenv("CARP_EXECUTOR", raising=False)
    monkeypatch.setenv("CARP_TASK_RETRIES", "3")
    first, owned = resolve_executor(None)
    second, _ = resolve_executor(None)
    assert type(first) is SerialExecutor and owned
    assert first.task_retries == 3
    assert first is not second


def test_default_executor_from_env(monkeypatch):
    monkeypatch.setenv("CARP_EXECUTOR", "process")
    monkeypatch.setenv("CARP_WORKERS", "2")
    exec_, owned = resolve_executor(None)
    assert isinstance(exec_, ProcessExecutor) and owned
    assert exec_.workers == 2
    exec_.close()
    monkeypatch.setenv("CARP_EXECUTOR", "thread")
    with pytest.raises(ValueError, match=r"\('serial', 'process'\)"):
        resolve_executor(None)


@pytest.mark.parametrize("kind", [None, "serial", "process"], ids=["unset", "serial", "process"])
def test_env_resolution_is_always_owned(monkeypatch, kind):
    if kind is None:
        monkeypatch.delenv("CARP_EXECUTOR", raising=False)
    else:
        monkeypatch.setenv("CARP_EXECUTOR", kind)
    exec_, owned = resolve_executor(None)
    assert owned
    exec_.close()


def test_resolve_executor_ownership():
    # explicit injection: caller keeps ownership
    mine = ProcessExecutor(2)
    exec_, owned = resolve_executor(mine)
    assert exec_ is mine and not owned
    mine.close()


def test_executor_from_args_flags_win(monkeypatch):
    monkeypatch.setenv("CARP_EXECUTOR", "serial")
    monkeypatch.setenv("CARP_WORKERS", "1")
    exec_ = executor_from_args(_cli_args(["--executor", "process", "--workers", "2"]))
    assert isinstance(exec_, ProcessExecutor) and exec_.workers == 2
    exec_.close()


def test_executor_from_args_falls_back_per_flag(monkeypatch):
    """A flag left unset falls back to its own environment variable:
    ``--executor process`` sizes the pool from ``CARP_WORKERS``."""
    monkeypatch.delenv("CARP_EXECUTOR", raising=False)
    monkeypatch.setenv("CARP_WORKERS", "1")
    exec_ = executor_from_args(_cli_args(["--executor", "process"]))
    assert isinstance(exec_, ProcessExecutor) and exec_.workers == 1
    exec_.close()
    monkeypatch.setenv("CARP_EXECUTOR", "process")
    exec_ = executor_from_args(_cli_args(["--workers", "1"]))
    assert isinstance(exec_, ProcessExecutor) and exec_.workers == 1
    exec_.close()


def test_executor_from_args_defaults_to_env_resolution(monkeypatch):
    monkeypatch.delenv("CARP_EXECUTOR", raising=False)
    exec_ = executor_from_args(_cli_args([]))
    assert type(exec_) is SerialExecutor


def test_serial_rejects_negative_retry_budget():
    """Both backends validate ``task_retries`` the same way."""
    for make in (lambda: SerialExecutor(task_retries=-1),
                 lambda: ProcessExecutor(2, task_retries=-1)):
        with pytest.raises(ValueError, match="task_retries must be >= 0"):
            make()


@pytest.mark.parametrize(
    ("var", "raw"),
    [("CARP_TASK_RETRIES", "-2"), ("CARP_TASK_RETRIES", "three"),
     ("CARP_WORKERS", "0"), ("CARP_WORKERS", "two")],
)
def test_bad_env_integer_names_the_variable(monkeypatch, var, raw):
    monkeypatch.delenv("CARP_EXECUTOR", raising=False)
    monkeypatch.setenv(var, raw)
    with pytest.raises(ValueError, match=rf"^{var} must be an integer >= \d, got '{raw}'$"):
        resolve_executor(None)

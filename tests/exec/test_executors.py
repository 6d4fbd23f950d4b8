"""The :class:`SerialExecutor` contract compaction's fan-out relies on."""

from __future__ import annotations

import pytest

from repro.exec import SerialExecutor, WorkerTaskError, resolve_executor


def add_task(a, b):
    return a + b


def boom_task():
    raise ValueError("kaboom")


@pytest.fixture
def executor():
    exec_ = SerialExecutor()
    yield exec_
    exec_.close()


def test_drain_returns_submission_order(executor):
    executor.submit(2, add_task, 0, 1)
    executor.submit(0, add_task, 0, 2)
    executor.submit(1, add_task, 0, 3)
    assert executor.drain() == [1, 2, 3]


def test_empty_drain(executor):
    assert executor.drain() == []


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
    # shard 0 fails; the task submitted after it still runs (one bad
    # epoch does not stop the others compacting), and the drain
    # reports shard 0's error
    ran = []
    executor.submit(0, boom_task)
    executor.submit(1, ran.append, "later")
    with pytest.raises(WorkerTaskError) as exc_info:
        executor.drain()
    assert exc_info.value.shard == 0
    assert ran == ["later"]


def test_context_manager_closes():
    with SerialExecutor() as exec_:
        exec_.submit(0, add_task, 1, 1)
    # closing dropped the undrained result
    assert exec_.drain() == []


def test_close_is_idempotent(executor):
    executor.close()
    executor.close()


def test_default_executor_without_env():
    """``None`` builds a fresh SerialExecutor the consumer owns; every
    resolution is a new instance."""
    first, owned = resolve_executor(None)
    second, _ = resolve_executor(None)
    assert type(first) is SerialExecutor and owned
    assert first is not second


def test_resolve_executor_ownership():
    # explicit injection: caller keeps ownership
    mine = SerialExecutor()
    exec_, owned = resolve_executor(mine)
    assert exec_ is mine and not owned
    mine.close()

"""Fixture: every X-family rule must fire on this file.

A deliberately broken thread-pool module: a shared module-level dict
mutated from a worker body without a lock, blocking calls and process
spawns under a held lock — plus locked/clean counterparts proving the
rules stay quiet on the sanctioned patterns.
"""
# carp-lint: disable=O501

import subprocess
import threading
import time

_shared_counts: dict[str, int] = {}
_results: list[str] = []
_lock = threading.Lock()


def worker_body(task):
    _shared_counts[task] = _shared_counts.get(task, 0) + 1  # X801
    _results.append(task)  # X801


def worker_locked(task):
    # ok: the sanctioned pattern — mutation under the module lock
    with _lock:
        _shared_counts[task] = 0


def run_all(tasks):
    threads = [
        threading.Thread(target=worker_body, args=(t,)) for t in tasks
    ]
    threads.append(threading.Thread(target=worker_locked, args=(tasks[0],)))
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def blocking_under_with_lock(pool, item):
    with _lock:
        time.sleep(0.1)  # X802
        pool.submit(0, item)  # X802


def spawn_under_lock(cmd):
    with _lock:
        subprocess.Popen(cmd)  # X803


def blocking_under_acquired_lock(pool, item):
    _lock.acquire()
    try:
        pool.submit(0, item)  # X802 (dataflow: lock held here)
    finally:
        _lock.release()
    # ok: the lock is released on every path before this submit
    pool.submit(1, item)

"""X/W/L rule families: the CFG-dataflow rules behave path-sensitively."""

from pathlib import Path

import pytest

from repro.analysis import lint_paths, select_rules
from repro.analysis.core import FileContext
from repro.analysis.runner import rules_by_id

_STORAGE = "src/repro/storage/snippet.py"
_QUERY = "src/repro/query/snippet.py"


def _check(rule_id: str, source: str, path: str = _STORAGE):
    ctx = FileContext.from_source(source, Path(path))
    rule = rules_by_id()[rule_id]
    out = list(rule.check(ctx)) if rule.applies(ctx) else []
    out.extend(rule.check_project([ctx]))
    return [v for v in out if v.rule == rule_id]


# ------------------------------------------------------------------ fixtures


@pytest.mark.parametrize(
    ("fixture", "expected"),
    [
        ("bad_concurrency.py", {"X801": 2, "X802": 3, "X803": 1}),
        ("bad_writepath.py", {"W901": 1, "W902": 1, "W903": 1}),
        ("bad_lifetime.py", {"L1001": 1, "L1002": 1, "L1003": 1}),
    ],
)
def test_fixture_fires_expected_rules(fixtures_dir, fixture, expected):
    prefixes = sorted({rule_id[0] for rule_id in expected})
    result = lint_paths(
        [fixtures_dir / fixture], rules=select_rules(prefixes)
    )
    counts = {rid: len(vs) for rid, vs in result.by_rule().items()}
    assert counts == expected


# ----------------------------------------------------------------- X family


def test_x801_thread_target_mutation():
    src = (
        "import threading\n"
        "_reg = {}\n"
        "def body(x):\n"
        "    _reg[x] = 1\n"
        "def run():\n"
        "    threading.Thread(target=body).start()\n"
    )
    assert len(_check("X801", src, "src/repro/exec/snippet.py")) == 1


def test_x801_quiet_without_thread_roots():
    src = "_reg = {}\ndef body(x):\n    _reg[x] = 1\n"
    assert _check("X801", src, "src/repro/exec/snippet.py") == []


def test_x801_lock_guard_is_sanctioned():
    src = (
        "import threading\n"
        "_reg = {}\n"
        "_lock = threading.Lock()\n"
        "def body(x):\n"
        "    with _lock:\n"
        "        _reg[x] = 1\n"
        "def run():\n"
        "    threading.Thread(target=body).start()\n"
    )
    assert _check("X801", src, "src/repro/exec/snippet.py") == []


def test_x801_follows_submit_through_helpers():
    src = (
        "_reg = {}\n"
        "def helper(x):\n"
        "    _reg[x] = 1\n"
        "def task(x):\n"
        "    helper(x)\n"
        "def run(pool):\n"
        "    pool.submit(task)\n"
    )
    assert len(_check("X801", src, "src/repro/exec/snippet.py")) == 1


def test_x802_release_in_finally_clears_the_lock():
    src = (
        "def f(pool, lock):\n"
        "    lock.acquire()\n"
        "    try:\n"
        "        pass\n"
        "    finally:\n"
        "        lock.release()\n"
        "    pool.submit(1)\n"
    )
    assert _check("X802", src) == []


def test_x802_lock_held_on_one_branch():
    src = (
        "def f(pool, lock, cond):\n"
        "    if cond:\n"
        "        lock.acquire()\n"
        "    pool.submit(1)\n"
    )
    assert len(_check("X802", src)) == 1


def test_x802_block_name_is_not_a_lock():
    src = (
        "def f(pool, key_block):\n"
        "    with key_block:\n"
        "        pool.submit(1)\n"
    )
    assert _check("X802", src) == []


def test_x803_popen_under_lock():
    src = (
        "import subprocess\n"
        "def f(lock, cmd):\n"
        "    with lock:\n"
        "        subprocess.Popen(cmd)\n"
    )
    assert len(_check("X803", src)) == 1


# ----------------------------------------------------------------- W family


def test_w901_unsynced_write_reaches_replace():
    src = (
        "import os\n"
        "def commit(tmp, dst, data):\n"
        "    with open(tmp, 'wb') as fh:\n"
        "        fh.write(data)\n"
        "    os.replace(tmp, dst)\n"
    )
    assert len(_check("W901", src)) == 1


def test_w901_fsync_before_commit_is_clean():
    src = (
        "import os\n"
        "def commit(tmp, dst, data):\n"
        "    with open(tmp, 'wb') as fh:\n"
        "        fh.write(data)\n"
        "        fh.flush()\n"
        "        os.fsync(fh.fileno())\n"
        "    os.replace(tmp, dst)\n"
    )
    assert _check("W901", src) == []


def test_w901_branch_that_skips_fsync_still_fires():
    src = (
        "import os\n"
        "def commit(tmp, dst, data, fast):\n"
        "    with open(tmp, 'wb') as fh:\n"
        "        fh.write(data)\n"
        "        fh.flush()\n"
        "        if not fast:\n"
        "            os.fsync(fh.fileno())\n"
        "    os.replace(tmp, dst)\n"
    )
    assert len(_check("W901", src)) == 1


def test_w902_footer_write_through_helper():
    src = (
        "class W:\n"
        "    def _emit(self, payload):\n"
        "        self._fh.write(payload)\n"
        "    def flush_epoch(self, block, footer):\n"
        "        self._emit(block + footer)\n"
        "        self._fh.flush()\n"
    )
    assert len(_check("W902", src)) == 1


def test_w902_fsync_through_self_handle_is_clean():
    src = (
        "import os\n"
        "class W:\n"
        "    def _emit(self, payload):\n"
        "        self._fh.write(payload)\n"
        "    def flush_epoch(self, block, footer):\n"
        "        self._emit(block + footer)\n"
        "        self._fh.flush()\n"
        "        os.fsync(self._fh.fileno())\n"
    )
    assert _check("W902", src) == []


def test_w903_requires_flush_before_fsync():
    src = (
        "import os\n"
        "def f(path, data):\n"
        "    fh = open(path, 'wb')\n"
        "    fh.write(data)\n"
        "    os.fsync(fh.fileno())\n"
        "    fh.close()\n"
    )
    assert len(_check("W903", src)) == 1


def test_w903_flushed_fsync_is_clean():
    src = (
        "import os\n"
        "def f(path, data):\n"
        "    fh = open(path, 'wb')\n"
        "    fh.write(data)\n"
        "    fh.flush()\n"
        "    os.fsync(fh.fileno())\n"
        "    fh.close()\n"
    )
    assert _check("W903", src) == []


def test_w_rules_scoped_to_storage():
    src = (
        "import os\n"
        "def commit(tmp, dst, data):\n"
        "    with open(tmp, 'wb') as fh:\n"
        "        fh.write(data)\n"
        "    os.replace(tmp, dst)\n"
    )
    ctx = FileContext.from_source(src, Path("src/repro/tools/snippet.py"))
    assert not rules_by_id()["W901"].applies(ctx)


# ----------------------------------------------------------------- L family


def test_l1001_early_return_leak():
    src = (
        "def f(path, cond):\n"
        "    fh = open(path)\n"
        "    if cond:\n"
        "        return None\n"
        "    fh.close()\n"
        "    return 1\n"
    )
    assert len(_check("L1001", src, _QUERY)) == 1


def test_l1001_closed_on_all_paths_is_clean():
    src = (
        "def f(path, cond):\n"
        "    fh = open(path)\n"
        "    try:\n"
        "        if cond:\n"
        "            return None\n"
        "        return fh.read()\n"
        "    finally:\n"
        "        fh.close()\n"
    )
    assert _check("L1001", src, _QUERY) == []


def test_l1001_exception_during_open_binds_nothing():
    # pre-state exceptional semantics: open() raising leaves no handle
    src = (
        "def f(path):\n"
        "    try:\n"
        "        fh = open(path)\n"
        "    except OSError:\n"
        "        return None\n"
        "    data = fh.read()\n"
        "    fh.close()\n"
        "    return data\n"
    )
    assert _check("L1001", src, _QUERY) == []


def test_l1001_escape_by_return_is_ownership_transfer():
    src = "def f(path):\n    fh = open(path)\n    return fh\n"
    assert _check("L1001", src, _QUERY) == []


def test_l1001_escape_into_attribute_is_ownership_transfer():
    src = (
        "class C:\n"
        "    def attach(self, path):\n"
        "        fh = open(path)\n"
        "        self._fh = fh\n"
    )
    assert _check("L1001", src, _QUERY) == []


def test_l1002_resource_attribute_without_close():
    src = (
        "class C:\n"
        "    def __init__(self, path):\n"
        "        self.fh = open(path)\n"
    )
    assert len(_check("L1002", src, _QUERY)) == 1


def test_l1002_close_method_is_clean():
    src = (
        "class C:\n"
        "    def __init__(self, path):\n"
        "        self.fh = open(path)\n"
        "    def close(self):\n"
        "        self.fh.close()\n"
    )
    assert _check("L1002", src, _QUERY) == []


def test_l1003_orphan_open():
    src = "def f(path):\n    return open(path).read()\n"
    assert len(_check("L1003", src, _QUERY)) == 1


def test_l1003_with_open_is_clean():
    src = (
        "def f(path):\n"
        "    with open(path) as fh:\n"
        "        return fh.read()\n"
    )
    assert _check("L1003", src, _QUERY) == []

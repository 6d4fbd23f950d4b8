"""P-family rules: shared-nothing worker state and worker-side obs."""

from pathlib import Path

from repro.analysis import lint_paths, select_rules
from repro.analysis.core import FileContext
from repro.analysis.exec_rules import EXEC_RULES


def _rule(rule_id: str):
    return next(r for r in EXEC_RULES if r.id == rule_id)


def _check(rule_id: str, source: str, path: str = "src/repro/exec/snippet.py"):
    ctx = FileContext.from_source(source, Path(path))
    rule = _rule(rule_id)
    return rule.check(ctx) if rule.applies(ctx) else []


def test_fixture_triggers_every_p_rule(fixtures_dir):
    result = lint_paths(
        [fixtures_dir / "bad_exec.py"], rules=select_rules(["P"])
    )
    by_rule = result.by_rule()
    # dict literal, annotated list, deque(), set comp, `global` stmt
    assert len(by_rule.get("P601", [])) == 5
    # Obs.recording(), VirtualClock()
    assert len(by_rule.get("P602", [])) == 2


def test_module_mutable_dict_flagged_in_exec_package():
    assert len(_check("P601", "STATE = {}\n")) == 1


def test_mutable_constructor_call_flagged():
    src = "from collections import defaultdict\nHITS = defaultdict(int)\n"
    assert len(_check("P601", src)) == 1


def test_immutable_module_constants_allowed():
    src = (
        "TIMEOUT = 0.1\n"
        "KINDS = ('serial', 'thread', 'process')\n"
        "NAMES = frozenset({'a', 'b'})\n"
    )
    assert _check("P601", src) == []


def test_dunder_metadata_exempt():
    # __all__ is interpreter-read metadata, not task-visible state
    assert _check("P601", "__all__ = ['Executor']\n") == []


def test_function_local_mutables_allowed():
    src = "def task(state, shard):\n    seen = {}\n    return seen\n"
    assert _check("P601", src) == []


def test_class_attributes_allowed():
    # class bodies are not module scope; Executor subclasses keep
    # per-instance state initialized in __init__
    src = "class Pool:\n    defaults = {}\n"
    assert _check("P601", src) == []


def test_global_statement_flagged_anywhere():
    src = "N = 0\ndef bump():\n    global N\n    N += 1\n"
    # the `global` statement is the finding (N = 0 itself is immutable)
    assert len(_check("P601", src)) == 1


def test_recording_obs_flagged_in_exec():
    src = "from repro.obs import Obs\n\ndef t(state):\n    return Obs.recording()\n"
    assert len(_check("P602", src)) == 1


def test_deltas_stack_is_sanctioned():
    # the worker-side pattern: metrics-only stack, no clock, no tracer
    src = (
        "from repro.obs import Obs\n"
        "def t(state):\n"
        "    state['obs'] = Obs.deltas()\n"
        "    return state['obs']\n"
    )
    assert _check("P602", src) == []


def test_rules_scoped_to_exec_package():
    src = "STATE = {}\nfrom repro.obs import VirtualClock\nc = VirtualClock()\n"
    ctx = FileContext.from_source(src, Path("src/repro/tools/some_cli.py"))
    assert not _rule("P601").applies(ctx)
    assert not _rule("P602").applies(ctx)

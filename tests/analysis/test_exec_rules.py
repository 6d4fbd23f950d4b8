"""O502 in ``repro.exec``: no self-built recording stack in the data plane."""

from pathlib import Path

from repro.analysis import lint_paths, select_rules
from repro.analysis.core import FileContext
from repro.analysis.obs_rules import OBS_RULES


def _check(source: str, path: str = "src/repro/exec/snippet.py"):
    ctx = FileContext.from_source(source, Path(path))
    rule = next(r for r in OBS_RULES if r.id == "O502")
    return rule.check(ctx) if rule.applies(ctx) else []


def test_fixture_flags_o502_on_its_tagged_lines(fixtures_dir):
    path = fixtures_dir / "bad_exec.py"
    result = lint_paths([path], rules=select_rules(["O502"]))
    # Obs.recording(), VirtualClock(), exactly on the tagged lines
    tagged = {
        n for n, line in enumerate(path.read_text().splitlines(), 1)
        if line.endswith("# O502")
    }
    assert len(tagged) == 2
    assert {v.line for v in result.by_rule()["O502"]} == tagged


def test_recording_obs_flagged_in_exec():
    # repro.exec is in O502's data-plane scope
    src = "from repro.obs import Obs\n\ndef t():\n    return Obs.recording()\n"
    assert len(_check(src)) == 1


def test_deltas_stack_is_sanctioned():
    # the rank-local stack a driver merges
    src = (
        "from repro.obs import Obs\n"
        "def t():\n"
        "    return Obs.deltas()\n"
    )
    assert _check(src) == []


def test_rules_scoped_to_exec_package():
    src = "from repro.obs import VirtualClock\nc = VirtualClock()\n"
    assert _check(src, "src/repro/tools/some_cli.py") == []

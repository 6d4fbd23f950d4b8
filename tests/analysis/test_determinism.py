"""D-family rule on the bad-determinism fixture and scoping behavior."""

from pathlib import Path

from repro.analysis import lint_paths, select_rules
from repro.analysis.core import FileContext
from repro.analysis.determinism import DETERMINISM_RULES
from repro.analysis.obs_rules import OBS_RULES


def _rule(rule_id: str):
    return next(r for r in (*DETERMINISM_RULES, *OBS_RULES) if r.id == rule_id)


def _check(rule_id: str, source: str, path: str = "snippet.py"):
    ctx = FileContext.from_source(source, Path(path))
    rule = _rule(rule_id)
    return rule.check(ctx) if rule.applies(ctx) else []


def test_fixture_triggers_every_d_rule(fixtures_dir):
    path = fixtures_dir / "bad_determinism.py"
    result = lint_paths([path], rules=select_rules(["D", "O501"]))
    by_rule = result.by_rule()
    assert len(by_rule.get("D104", [])) == 1
    # wall-clock reads are O501's: both imports and both calls, exactly
    # on the lines the fixture tags
    tagged = {
        n for n, line in enumerate(path.read_text().splitlines(), 1)
        if line.endswith("# O501")
    }
    assert len(tagged) == 4
    assert {v.line for v in by_rule["O501"]} == tagged


def test_wall_clock_flagged_through_from_import():
    # O501 flags the import and the call it binds
    src = "from time import time\nt = time()\n"
    assert len(_check("O501", src)) == 2


def test_out_of_scope_module_is_exempt():
    # repro.traces is outside the determinism scope: generators are
    # seeded by spec, so hashing there is not checked
    src = "b = hash('energy-band')\n"
    ctx = FileContext.from_source(
        src, Path("src/repro/traces/synthetic_extra.py")
    )
    rule = _rule("D104")
    assert not rule.applies(ctx)


def test_in_scope_module_is_checked():
    src = "b = hash('energy-band')\n"
    ctx = FileContext.from_source(src, Path("src/repro/sim/newmodel.py"))
    rule = _rule("D104")
    assert rule.applies(ctx)
    assert len(rule.check(ctx)) == 1


def test_hash_shadowed_by_local_function_calls_still_flagged():
    violations = _check("D104", "x = hash('energy-band')\n")
    assert len(violations) == 1

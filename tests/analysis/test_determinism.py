"""D-family rules on the bad-determinism fixture and scoping behavior."""

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
    assert len(by_rule.get("D102", [])) == 2
    assert len(by_rule.get("D103", [])) == 3
    assert len(by_rule.get("D104", [])) == 1
    # wall-clock reads are O501's: both imports and both calls, exactly
    # on the lines the fixture tags
    tagged = {
        n for n, line in enumerate(path.read_text().splitlines(), 1)
        if line.endswith("# O501")
    }
    assert len(tagged) == 4
    assert {v.line for v in by_rule["O501"]} == tagged


def test_seeded_rng_not_flagged():
    src = "import numpy as np\nrng = np.random.default_rng(42)\n"
    assert _check("D102", src) == []
    src_kw = "import numpy as np\nrng = np.random.default_rng(seed=7)\n"
    assert _check("D102", src_kw) == []


def test_unseeded_rng_flagged_through_alias():
    src = (
        "from numpy.random import default_rng as mk\n"
        "rng = mk()\n"
    )
    violations = _check("D102", src)
    assert len(violations) == 1
    assert violations[0].rule == "D102"


def test_wall_clock_flagged_through_from_import():
    # O501 flags the import and the call it binds
    src = "from time import time\nt = time()\n"
    assert len(_check("O501", src)) == 2


def test_out_of_scope_module_is_exempt():
    # repro.traces is outside the determinism scope: generators are
    # seeded by spec, so global-looking calls there are not checked
    src = "import random\nr = random.random()\n"
    ctx = FileContext.from_source(
        src, Path("src/repro/traces/synthetic_extra.py")
    )
    rule = _rule("D103")
    assert not rule.applies(ctx)


def test_in_scope_module_is_checked():
    src = "import random\nr = random.random()\n"
    ctx = FileContext.from_source(src, Path("src/repro/sim/newmodel.py"))
    rule = _rule("D103")
    assert rule.applies(ctx)
    assert len(rule.check(ctx)) == 1


def test_hash_shadowed_by_local_function_calls_still_flagged():
    violations = _check("D104", "x = hash('energy-band')\n")
    assert len(violations) == 1

"""F-family rule: on-disk struct formats pin their byte order."""

from pathlib import Path

from repro.analysis import lint_paths, select_rules
from repro.analysis.core import FileContext
from repro.analysis.formats import module_string_constants


def test_module_string_constants():
    src = '_FMT = "<QQ"\nOTHER = 3\nNAME = "plain"\n'
    consts = module_string_constants(
        FileContext.from_source(src, Path("m.py")).tree
    )
    assert consts == {"_FMT": "<QQ", "NAME": "plain"}


def test_fixture_triggers_every_f_rule(fixtures_dir):
    result = lint_paths(
        [fixtures_dir / "bad_format.py"], rules=select_rules(["F"])
    )
    by_rule = result.by_rule()
    # NATIVE_FMT through its constant; the pinned format is clean
    assert set(by_rule) == {"F203"}
    assert len(by_rule["F203"]) == 1


def test_repo_storage_layer_is_format_clean(repo_src):
    result = lint_paths([repo_src / "storage"], rules=select_rules(["F"]))
    assert result.violations == [], [str(v.format()) for v in result.violations]

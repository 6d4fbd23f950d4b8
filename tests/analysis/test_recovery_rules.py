"""R-family rules: recovery quarantines, it never deletes."""

from pathlib import Path

from repro.analysis import lint_paths, select_rules
from repro.analysis.core import FileContext
from repro.analysis.recovery_rules import RECOVERY_RULES


def _rule(rule_id: str):
    return next(r for r in RECOVERY_RULES if r.id == rule_id)


def _check(rule_id: str, source: str, path: str = "src/repro/storage/snippet.py"):
    ctx = FileContext.from_source(source, Path(path))
    rule = _rule(rule_id)
    return rule.check(ctx) if rule.applies(ctx) else []


def test_fixture_triggers_every_r_rule(fixtures_dir):
    result = lint_paths(
        [fixtures_dir / "bad_recovery.py"], rules=select_rules(["R"])
    )
    by_rule = result.by_rule()
    # os.remove, os.unlink, os.rmdir, shutil.rmtree, Path.unlink
    assert len(by_rule.get("R701", [])) == 5


def test_os_remove_flagged_in_storage_package():
    src = "import os\n\ndef gc(path):\n    os.remove(path)\n"
    assert len(_check("R701", src)) == 1


def test_path_unlink_method_flagged():
    src = "def gc(path):\n    path.unlink(missing_ok=True)\n"
    assert len(_check("R701", src)) == 1


def test_shutil_rmtree_flagged_through_alias():
    src = "import shutil as sh\n\ndef gc(d):\n    sh.rmtree(d)\n"
    assert len(_check("R701", src)) == 1


def test_quarantine_helpers_exempt():
    src = (
        "import os\n"
        "def quarantine_tail(path):\n"
        "    os.remove(path)\n"
        "def quarantine_whole_file(path):\n"
        "    def move():\n"
        "        path.unlink()\n"
        "    move()\n"
    )
    assert _check("R701", src) == []


def test_rename_and_replace_are_sanctioned():
    # quarantine moves files aside; os.replace/rename never destroy bytes
    src = (
        "import os\n"
        "def repair(path, target):\n"
        "    os.replace(path, target)\n"
        "    os.rename(path, target)\n"
    )
    assert _check("R701", src) == []


def test_list_remove_is_not_a_file_deletion():
    src = "def prune(entries, bad):\n    entries.remove(bad)\n"
    assert _check("R701", src) == []


def test_rule_scoped_to_storage_package():
    src = "import os\n\ndef gc(path):\n    os.remove(path)\n"
    ctx = FileContext.from_source(src, Path("src/repro/tools/some_cli.py"))
    assert not _rule("R701").applies(ctx)

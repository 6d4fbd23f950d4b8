"""Suppressions: file-wide disable=, line-scoped disable-next= /
disable-line=, precedence, and module inference."""

from pathlib import Path

from repro.analysis import lint_paths, select_rules
from repro.analysis.core import (
    FileContext,
    parse_line_suppressions,
    parse_suppressions,
)


def _lint_source(tmp_path, source, name="snippet.py"):
    path = tmp_path / name
    path.write_text(source)
    return lint_paths([path])


def test_suppression_comment_parsing():
    assert parse_suppressions("# carp-lint: disable=D104\n") == {"D104"}
    assert parse_suppressions("# carp-lint: disable=D104, F203\n") == {
        "D104", "F203",
    }
    assert parse_suppressions("x = 1  # carp-lint: disable=all\n") == {"all"}
    assert parse_suppressions("# unrelated comment\n") == set()


def test_suppressed_fixture_is_clean_for_suppressed_rules(fixtures_dir):
    result = lint_paths(
        [fixtures_dir / "suppressed_ok.py"],
        rules=select_rules(["D", "O501"]),
    )
    assert result.violations == []


def test_suppression_does_not_leak_to_other_rules(tmp_path):
    src = (
        "# carp-lint: disable=O501\n"
        "import time\n"
        "key = 'k'\n"
        "t = time.time()\n"
        "r = hash(key)\n"
    )
    path = tmp_path / "partial.py"
    path.write_text(src)
    result = lint_paths([path], rules=select_rules(["D", "O501"]))
    rules = {v.rule for v in result.violations}
    assert rules == {"D104"}  # O501 suppressed, D104 still fires


def test_file_context_module_inference():
    ctx = FileContext.from_source(
        "x = 1\n", Path("src/repro/sim/engine.py")
    )
    assert ctx.module == "repro.sim.engine"
    ctx2 = FileContext.from_source("x = 1\n", Path("tests/foo.py"))
    assert ctx2.module is None
    ctx3 = FileContext.from_source(
        "x = 1\n", Path("src/repro/storage/__init__.py")
    )
    assert ctx3.module == "repro.storage"


def test_parse_line_suppressions_forms():
    src = (
        "# carp-lint: disable-next=D104\n"
        "x = 1\n"
        "y = 2  # carp-lint: disable-line=D104, F203\n"
        "# carp-lint: disable-next=all\n"
        "z = 3\n"
    )
    parsed = parse_line_suppressions(src)
    assert parsed == {
        2: {"D104"},
        3: {"D104", "F203"},
        5: {"all"},
    }


def test_disable_next_skips_blank_and_comment_lines():
    src = (
        "# carp-lint: disable-next=D104\n"
        "\n"
        "# an unrelated comment\n"
        "x = 1\n"
    )
    assert parse_line_suppressions(src) == {4: {"D104"}}


def test_file_wide_disable_is_not_a_line_form():
    # the narrower forms must not be swallowed by the disable= regex,
    # nor vice versa
    src = "# carp-lint: disable=D104\nx = 1\n"
    assert parse_line_suppressions(src) == {}


def test_is_suppressed_precedence():
    src = (
        "# carp-lint: disable=F203\n"
        "# carp-lint: disable-next=D104\n"
        "x = 1\n"
        "y = 2  # carp-lint: disable-line=all\n"
    )
    ctx = FileContext.from_source(src, Path("m.py"))
    # file-wide applies on every line
    assert ctx.is_suppressed("F203", line=3)
    assert ctx.is_suppressed("F203")
    # line forms only on their line
    assert ctx.is_suppressed("D104", line=3)
    assert not ctx.is_suppressed("D104", line=2)
    # disable-line=all silences everything on that one line only
    assert ctx.is_suppressed("X999", line=4)
    assert not ctx.is_suppressed("X999", line=3)


def test_disable_line_silences_one_finding(tmp_path):
    noisy = "key = 'k'\n\n\ndef f():\n    return hash(key)\n"
    result = _lint_source(tmp_path, noisy)
    fired = {v.rule for v in result.violations}
    assert "D104" in fired

    line = noisy.splitlines()[4] + "  # carp-lint: disable-line=D104\n"
    fixed = "\n".join(noisy.splitlines()[:4]) + "\n" + line
    result = _lint_source(tmp_path, fixed)
    assert "D104" not in {v.rule for v in result.violations}


def test_disable_next_silences_the_following_line(tmp_path):
    src = (
        "key = 'k'\n"
        "\n"
        "\n"
        "def f():\n"
        "    # carp-lint: disable-next=D104\n"
        "    return hash(key)\n"
    )
    result = _lint_source(tmp_path, src)
    assert "D104" not in {v.rule for v in result.violations}


def test_line_suppression_does_not_leak_to_other_lines(tmp_path):
    src = (
        "key = 'k'\n"
        "\n"
        "\n"
        "def f():\n"
        "    # carp-lint: disable-next=D104\n"
        "    a = hash(key)\n"
        "    b = hash(key)\n"
        "    return a, b\n"
    )
    result = _lint_source(tmp_path, src)
    d104_lines = {v.line for v in result.violations if v.rule == "D104"}
    assert 6 not in d104_lines
    assert 7 in d104_lines

"""Tier-1 gate: the repo's own source must satisfy every carp-lint rule.

This is the enforcement point for the invariants in docs/INVARIANTS.md —
determinism and clock discipline under repro.sim/core/shuffle/storage,
struct-format pairing and CRC-checked readers in repro.storage, and
cost-model charging in repro.sim.  Generic hygiene and annotation
coverage are ruff's and strict mypy's (see pyproject.toml).
"""

from repro.analysis import lint_paths


def test_src_repro_is_lint_clean(repo_src):
    result = lint_paths([repo_src])
    assert result.parse_errors == []
    assert result.ok, "\n" + "\n".join(v.format() for v in result.violations)


def test_scripts_are_parseable(repo_src):
    # scripts/ are entry points outside the scoped packages; ruff gates
    # their hygiene, and carp-lint must still be able to parse them.
    scripts = repo_src.parents[1] / "scripts"
    result = lint_paths([scripts])
    assert result.parse_errors == []

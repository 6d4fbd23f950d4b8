"""Lint driver: file discovery, rule execution, result aggregation.

Usable as a library (:func:`lint_paths` returns a :class:`LintResult`)
and by the ``carp-lint`` CLI (:mod:`repro.analysis.cli`).  A tier-1
test (``tests/analysis/test_repo_clean.py``) runs :func:`lint_paths`
over ``src/repro`` so every invariant rule is enforced on every
``pytest`` run, not just in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.concurrency_rules import CONCURRENCY_RULES
from repro.analysis.core import FileContext, Rule, Violation
from repro.analysis.costmodel import COSTMODEL_RULES
from repro.analysis.determinism import DETERMINISM_RULES
from repro.analysis.formats import FORMAT_RULES
from repro.analysis.lifetime_rules import LIFETIME_RULES
from repro.analysis.obs_rules import OBS_RULES
from repro.analysis.recovery_rules import RECOVERY_RULES
from repro.analysis.write_rules import WRITE_RULES

#: Every registered rule, in family order.
ALL_RULES: tuple[Rule, ...] = (
    *DETERMINISM_RULES,
    *FORMAT_RULES,
    *COSTMODEL_RULES,
    *OBS_RULES,
    *RECOVERY_RULES,
    *CONCURRENCY_RULES,
    *WRITE_RULES,
    *LIFETIME_RULES,
)


def rules_by_id() -> dict[str, Rule]:
    return {r.id: r for r in ALL_RULES}


@dataclass
class LintResult:
    """Aggregated outcome of one lint run."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def by_rule(self) -> dict[str, list[Violation]]:
        out: dict[str, list[Violation]] = {}
        for v in self.violations:
            out.setdefault(v.rule, []).append(v)
        return out

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "violations": [v.to_dict() for v in self.violations],
            "parse_errors": list(self.parse_errors),
        }


def iter_python_files(paths: list[Path | str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.update(p.rglob("*.py"))
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out)


def select_rules(
    select: list[str] | None = None, ignore: list[str] | None = None
) -> list[Rule]:
    """Resolve a rule subset by id or family prefix (``D``, ``F201``)."""

    def matches(rule: Rule, spec: str) -> bool:
        return rule.id == spec or rule.id.startswith(spec)

    rules = list(ALL_RULES)
    if select:
        unknown = [
            s for s in select if not any(matches(r, s) for r in ALL_RULES)
        ]
        if unknown:
            raise ValueError(f"unknown rule selector(s): {', '.join(unknown)}")
        rules = [r for r in rules if any(matches(r, s) for s in select)]
    if ignore:
        rules = [r for r in rules if not any(matches(r, s) for s in ignore)]
    return rules


def lint_paths(
    paths: list[Path | str],
    rules: list[Rule] | None = None,
) -> LintResult:
    """Lint files/directories; returns all surviving violations.

    Suppressions — file-wide (``# carp-lint: disable=RULE``) and
    line-scoped (``disable-next=`` / ``disable-line=``) — are applied
    to both per-file and project-wide findings.
    """
    active = list(ALL_RULES) if rules is None else rules
    result = LintResult()
    ctxs: list[FileContext] = []
    for path in iter_python_files(paths):
        try:
            ctxs.append(FileContext.from_path(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            result.parse_errors.append(f"{path}: {exc}")
    result.files_checked = len(ctxs)

    ctx_by_path = {str(c.path): c for c in ctxs}
    raw: list[Violation] = []
    for rule in active:
        for ctx in ctxs:
            if rule.applies(ctx):
                raw.extend(rule.check(ctx))
        raw.extend(rule.check_project(ctxs))
    for v in raw:
        ctx = ctx_by_path.get(v.path)
        if ctx is not None and ctx.is_suppressed(v.rule, v.line):
            continue
        result.violations.append(v)
    result.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return result


def format_human(result: LintResult) -> str:
    """Render a result the way compilers do: one finding per line."""
    lines = [v.format() for v in result.violations]
    lines.extend(f"PARSE ERROR: {e}" for e in result.parse_errors)
    n = len(result.violations)
    if result.ok:
        lines.append(f"carp-lint: OK — {result.files_checked} files clean")
    else:
        lines.append(
            f"carp-lint: {n} violation(s), "
            f"{len(result.parse_errors)} parse error(s) "
            f"in {result.files_checked} files"
        )
    return "\n".join(lines)

"""``carp-lint``: repo-aware static analysis for the CARP reproduction.

Enforces, at review time, the invariants the reproduction rests on
that no runtime test can see:

* **determinism** (D-rules) — no per-process salted ``hash()`` in the
  simulation core,
* **on-disk format safety** (F-rules) — every ``struct`` format pins
  its byte order,
* **clock and instrumentation discipline** (O-rules) — no wall clock
  and no self-built recording stack in the instrumented packages,
* **thread and write-path safety** (X and W-rules).

Each rule earned its place by a keep test: its bug, planted in a real
module, failed no runtime test (``docs/ANALYSIS.md`` has the table,
with the test that replaced each deleted rule).  Generic hygiene and
annotation coverage are ruff's and ``mypy --strict``'s
(``pyproject.toml``), not carp-lint's.  See ``docs/INVARIANTS.md`` for
the rule catalogue and suppression syntax, and
:mod:`repro.analysis.cli` for the ``carp lint`` subcommand.
"""

from repro.analysis.core import FileContext, Rule, Violation
from repro.analysis.runner import (
    ALL_RULES,
    LintResult,
    format_human,
    lint_paths,
    rules_by_id,
    select_rules,
)

__all__ = [
    "FileContext", "Rule", "Violation", "ALL_RULES", "LintResult",
    "format_human", "lint_paths", "rules_by_id", "select_rules",
]

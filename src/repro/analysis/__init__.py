"""``carp-lint``: repo-aware static analysis for the CARP reproduction.

Enforces, at review time, the invariants the reproduction rests on:

* **determinism** (D-rules) — no unseeded or global RNG anywhere in
  the simulation core,
* **on-disk format safety** (F-rules) — ``struct`` formats stay
  pack/unpack-consistent and every block writer has a CRC-checking
  reader,
* **cost accounting** (C-rules) — no simulated I/O escapes the
  iomodel/netmodel charging,
* **clock and instrumentation discipline** (O-rules) — no wall clock
  and no self-built recording stack in the instrumented packages,
* **recovery, thread, write-path and lifetime safety** (R, X, W and
  L-rules).

Generic hygiene and annotation coverage are ruff's and ``mypy
--strict``'s (``pyproject.toml``), not carp-lint's.  See
``docs/INVARIANTS.md`` for the rule catalogue and suppression syntax,
and :mod:`repro.analysis.cli` for the ``carp-lint`` command.
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

"""Determinism rule (D-family).

The logical simulation must be bit-reproducible: identical inputs must
produce identical partition tables, identical SSTables, and identical
statistics, or the paper-reproduction benchmarks stop being
comparable run to run.  An unseeded or global-state RNG breaks that on
the first run, and the byte-identity suites see it; a salted hash
breaks it only *across* processes, which no single test run can see.
Wall-clock reads are banned in the same scope by O501
(:mod:`repro.analysis.obs_rules`).

D104
    Builtin ``hash()``: salted per process for ``str``/``bytes``
    (``PYTHONHASHSEED``), so any routing or bucketing built on it is
    non-reproducible.
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, Violation

#: Simulation-core packages that must stay deterministic.  The
#: observability stack records *inside* the core, so it is held to the
#: same standard.
DETERMINISM_SCOPE = (
    "repro.sim",
    "repro.core",
    "repro.shuffle",
    "repro.storage",
    "repro.obs",
    "repro.exec",
    "repro.kernels",
)


class SaltedHashRule(Rule):
    id = "D104"
    name = "salted-hash"
    description = "builtin hash() is salted per process"
    scope = DETERMINISM_SCOPE

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        shadowed = {
            a for a in ctx.aliases if a == "hash"
        }  # a local import named `hash` is not the builtin
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id == "hash"
                and func.id not in shadowed
            ):
                out.append(
                    self.violation(
                        ctx, node,
                        "builtin hash() is PYTHONHASHSEED-salted for "
                        "str/bytes — use a stable hash (zlib.crc32, the "
                        "splitmix router) instead",
                    )
                )
        return out


DETERMINISM_RULES: tuple[Rule, ...] = (SaltedHashRule(),)

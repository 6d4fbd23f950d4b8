"""Determinism rules (D-family).

The logical simulation must be bit-reproducible: identical inputs must
produce identical partition tables, identical SSTables, and identical
statistics, or the paper-reproduction benchmarks stop being
comparable run to run.  That means no unseeded / global-state
randomness anywhere in the simulation core (``repro.sim``,
``repro.core``, ``repro.shuffle``, ``repro.storage``).  Wall-clock
reads are banned in the same scope by O501
(:mod:`repro.analysis.obs_rules`).

Rules
-----
D102
    RNG constructed without a seed (``np.random.default_rng()``,
    ``random.Random()``).
D103
    Global-state RNG use (``random.random()``, ``np.random.rand()``,
    ...): draws depend on call order across the whole process.
D104
    Builtin ``hash()``: salted per process for ``str``/``bytes``
    (``PYTHONHASHSEED``), so any routing or bucketing built on it is
    non-reproducible.
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, Violation, qualified_name

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

#: RNG constructors that accept a seed as first arg / ``seed=`` kwarg.
SEEDABLE_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "random.Random",
        "numpy.random.RandomState",
    }
)

#: Module-level (global-state) RNG entry points.
GLOBAL_RNG_CALLS = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.uniform",
        "random.gauss",
        "random.normalvariate",
        "random.choice",
        "random.choices",
        "random.sample",
        "random.shuffle",
        "random.seed",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.random",
        "numpy.random.random_sample",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
        "numpy.random.uniform",
        "numpy.random.normal",
        "numpy.random.seed",
    }
)


def _is_seeded(call: ast.Call) -> bool:
    """True when an RNG constructor call passes an explicit seed."""
    if call.args:
        return True
    return any(kw.arg in ("seed", "x") for kw in call.keywords)


class _DRuleBase(Rule):
    scope = DETERMINISM_SCOPE


class UnseededRngRule(_DRuleBase):
    id = "D102"
    name = "unseeded-rng"
    description = "RNG constructed without an explicit seed"

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = qualified_name(node.func, ctx.aliases)
            if qual in SEEDABLE_CONSTRUCTORS and not _is_seeded(node):
                out.append(
                    self.violation(
                        ctx, node,
                        f"{qual}() constructed without a seed — pass an "
                        "explicit seed so runs are reproducible",
                    )
                )
        return out


class GlobalRngRule(_DRuleBase):
    id = "D103"
    name = "global-rng"
    description = "module-level (global-state) RNG use"

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = qualified_name(node.func, ctx.aliases)
            if qual in GLOBAL_RNG_CALLS:
                out.append(
                    self.violation(
                        ctx, node,
                        f"global RNG call {qual}() — use a seeded "
                        "np.random.Generator owned by the caller instead",
                    )
                )
        return out


class SaltedHashRule(_DRuleBase):
    id = "D104"
    name = "salted-hash"
    description = "builtin hash() is salted per process"

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


DETERMINISM_RULES: tuple[Rule, ...] = (
    UnseededRngRule(),
    GlobalRngRule(),
    SaltedHashRule(),
)

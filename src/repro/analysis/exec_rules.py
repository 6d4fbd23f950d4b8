"""Parallel-execution rules (P-family).

``repro.exec`` task functions run under two interchangeable backends
— inline and worker processes — and the repo's determinism
contract requires both to produce bit-identical output.  A worker's
recording observability is O502's (``repro.exec`` is in its data-plane
scope: tasks record into ``Obs.deltas()``); the P-family checks the
one property only it can see:

Rules
-----
P601
    Module-level mutable state in ``repro.exec``.  A task function
    closing over a module-level ``dict``/``list``/``set`` behaves
    differently under :class:`ProcessExecutor` (each worker has its own
    copy of the module) than under serial execution (one shared
    object), so results silently diverge across backends.  All
    mutable task state must live in the executor-managed per-shard
    ``state`` mapping.  Module-level constants (numbers, strings,
    tuples) are fine; ``global`` statements are flagged for the same
    reason.
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, Violation

#: The parallel-execution package the P-family governs.
EXEC_SCOPE = ("repro.exec",)

#: Literal expressions producing a mutable object.
_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

#: Builtin calls producing a mutable container.
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "deque"})


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


class ModuleMutableStateRule(Rule):
    id = "P601"
    name = "exec-module-mutable-state"
    description = (
        "module-level mutable state in repro.exec — invisible to process "
        "workers, shared by inline tasks; results diverge across backends"
    )
    scope = EXEC_SCOPE

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ctx.tree.body:
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not _is_mutable_value(value):
                continue
            plain = [t.id for t in targets if isinstance(t, ast.Name)]
            # dunder metadata (__all__ and friends) is interpreter-read,
            # never task-visible state
            if plain and all(n.startswith("__") and n.endswith("__") for n in plain):
                continue
            names = ", ".join(plain) or "<target>"
            out.append(
                self.violation(
                    ctx, node,
                    f"module-level mutable assignment to {names} — task "
                    "functions must keep mutable state in the executor's "
                    "per-shard `state` mapping, where every backend sees "
                    "the same (worker-exclusive) object",
                )
            )
        for inner in ast.walk(ctx.tree):
            if isinstance(inner, ast.Global):
                out.append(
                    self.violation(
                        ctx, inner,
                        "`global` statement in repro.exec — module globals "
                        "are per-process under ProcessExecutor; use the "
                        "per-shard `state` mapping",
                    )
                )
        return out


EXEC_RULES: tuple[Rule, ...] = (ModuleMutableStateRule(),)

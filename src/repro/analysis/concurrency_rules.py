"""Cross-thread safety rules (X-family).

Threads share the process: a serve-plane worker, an ingest thread
beside a reader, a thread pool.  The race surface these rules police
is shared module state and what runs under a lock:

X801
    Module-level mutable state mutated by code reachable from a
    thread-pool worker body without holding a lock.  Worker
    reachability comes from the project call graph
    (:mod:`repro.analysis.callgraph`): roots are ``target=`` of
    ``Thread``/``Process`` constructions and function references
    passed to ``submit``/``map``.
X802
    A blocking operation (sleep, fsync, executor ``submit``/
    ``result``, socket I/O, nested ``acquire``) while holding a lock —
    the classic convoy/deadlock shape.  Detected both structurally
    (``with <lock>:`` bodies) and by dataflow over ``acquire``/
    ``release`` pairs (:mod:`repro.analysis.dataflow`), so a release
    in a ``finally`` is honoured on exceptional paths.
X803
    Spawning a process while holding a lock.  ``fork`` duplicates the
    lock in an arbitrary state in the child, which deadlocks the child
    on first contention.

Lock expressions are recognized by name: a ``Name``/``Attribute``
whose final identifier *is* ``lock``/``mutex`` (or ends with
``_lock``/``_mutex``) — deliberately anchored so ``block``/``clock``
never match.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Callable

from repro.analysis.callgraph import ProjectCallGraph
from repro.analysis.cfg import build_cfg
from repro.analysis.core import (
    FileContext,
    Rule,
    Violation,
    iter_functions,
    qualified_name,
)
from repro.analysis.dataflow import MAY, GenKillAnalysis, solve

#: Anchored so ``block``/``clock``/``key_block_size`` never match.
_LOCK_NAME_RE = re.compile(r"(^|_)(lock|mutex)s?$", re.IGNORECASE)

#: Statically resolvable blocking calls.
_BLOCKING_QUALIFIED = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "socket.create_connection",
    }
)

#: Method names that block on the executor/socket/lock seam.
_BLOCKING_METHODS = frozenset(
    {"submit", "result", "acquire", "wait", "recv", "send", "accept", "connect"}
)

#: Process-spawning calls (X803).
_SPAWN_QUALIFIED = frozenset(
    {"subprocess.Popen", "os.fork", "multiprocessing.Process"}
)
_SPAWN_TERMINALS = frozenset({"Popen", "Process", "fork"})

#: Methods that mutate the common mutable containers in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "setdefault",
        "appendleft",
    }
)


def _terminal_ident(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_lock_expr(node: ast.expr) -> bool:
    ident = _terminal_ident(node)
    return ident is not None and _LOCK_NAME_RE.search(ident) is not None


def _is_blocking(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """Describe why a call blocks, or ``None``."""
    qual = qualified_name(call.func, aliases)
    if qual in _BLOCKING_QUALIFIED:
        return f"{qual}()"
    terminal = _terminal_ident(call.func)
    if terminal in _BLOCKING_METHODS:
        # "sep".join-style constant receivers are not lock hazards
        if isinstance(call.func, ast.Attribute) and isinstance(
            call.func.value, ast.Constant
        ):
            return None
        return f".{terminal}()"
    return None


def _is_spawn(call: ast.Call, aliases: dict[str, str]) -> str | None:
    qual = qualified_name(call.func, aliases)
    if qual in _SPAWN_QUALIFIED:
        return f"{qual}()"
    terminal = _terminal_ident(call.func)
    if terminal in _SPAWN_TERMINALS:
        return f"{terminal}()"
    return None


# --------------------------------------------------------------- X801


def _module_globals(tree: ast.Module) -> set[str]:
    """Names bound by assignment at module top level (not defs/imports)."""
    out: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    out.add(sub.id)
    return out


def _local_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names the function binds locally (shadowing module globals)."""
    args = fn.args
    out = {
        a.arg
        for a in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        )
    }
    declared: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
    return out - declared


def _iter_global_mutations(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, mod_globals: set[str]
) -> list[tuple[ast.AST, str]]:
    """(node, name) for every unlocked mutation of a module-level name.

    Mutations inside a lock-guarded ``with`` body are excluded — that
    is the sanctioned way to share module state across workers.
    """
    shared = mod_globals - _local_names(fn)
    declared_global: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    out: list[tuple[ast.AST, str]] = []

    def base_name(node: ast.expr) -> str | None:
        cur = node
        while isinstance(cur, (ast.Subscript, ast.Attribute)):
            cur = cur.value
        return cur.id if isinstance(cur, ast.Name) else None

    def visit(node: ast.AST, locked: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            guarded = locked or any(
                is_lock_expr(item.context_expr) for item in node.items
            )
            for stmt in node.body:
                visit(stmt, guarded)
            return
        if not locked:
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    name = base_name(target)
                    if name is None or name not in shared:
                        continue
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        out.append((node, name))
                    elif isinstance(node, ast.AugAssign) or (
                        name in declared_global
                    ):
                        # a plain rebind of a bare Name is only a
                        # module-state mutation under `global`
                        out.append((node, name))
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in shared
                ):
                    out.append((node, func.value.id))
        for child in ast.iter_child_nodes(node):
            visit(child, locked)

    for stmt in fn.body:
        visit(stmt, False)
    return out


class SharedStateFromWorkersRule(Rule):
    id = "X801"
    name = "unlocked-shared-state-from-worker"
    description = (
        "module-level mutable state mutated without a lock by code "
        "reachable from a thread-pool worker body"
    )

    def check_project(self, ctxs: list[FileContext]) -> list[Violation]:
        graph = ProjectCallGraph.build(ctxs)
        roots = graph.thread_entry_points(ctxs)
        if not roots:
            return []
        reach = graph.reachable(roots)
        globals_by_file: dict[str, set[str]] = {}
        out: list[Violation] = []
        for key in sorted(reach):
            info = graph.nodes[key]
            if info.file_key not in globals_by_file:
                globals_by_file[info.file_key] = _module_globals(info.ctx.tree)
            for node, name in _iter_global_mutations(
                info.node, globals_by_file[info.file_key]
            ):
                out.append(
                    self.violation(
                        info.ctx, node,
                        f"module-level state '{name}' is mutated in "
                        f"'{info.qualname}', which can run on a worker "
                        "thread — guard the mutation with a lock or move "
                        "the state into the per-shard state dict",
                    )
                )
        return out


# --------------------------------------------------------- X802 / X803


def _check_held_locks(
    rule: Rule,
    ctx: FileContext,
    classify: Callable[[ast.Call, dict[str, str]], str | None],
    hazard: Callable[[str, str], str],
) -> list[Violation]:
    """Findings for calls matched by ``classify`` while a lock is held.

    Two complementary passes per function: a syntactic walk of
    ``with <lock>:`` bodies, and a CFG dataflow over ``acquire``/
    ``release`` pairs (which honours releases in ``finally``).  The
    ``acquire`` element itself sees the *pre*-acquire state, so it
    never flags the lock it is taking.
    """
    out: list[Violation] = []
    seen: set[tuple[int, int, str]] = set()

    def report(call: ast.Call, lock_desc: str) -> None:
        desc = classify(call, ctx.aliases)
        if desc is None:
            return
        key = (call.lineno, call.col_offset, desc)
        if key in seen:
            return
        seen.add(key)
        out.append(rule.violation(ctx, call, hazard(desc, lock_desc)))

    def structural(node: ast.AST, lock_desc: str | None) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            held = lock_desc
            for item in node.items:
                if is_lock_expr(item.context_expr):
                    held = f"'{_terminal_ident(item.context_expr)}'"
            for stmt in node.body:
                structural(stmt, held)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lock_desc = None  # nested defs run later, not under the lock
        if lock_desc is not None and isinstance(node, ast.Call):
            report(node, lock_desc)
        for child in ast.iter_child_nodes(node):
            structural(child, lock_desc)

    def acq_rel(elem: ast.AST, attr: str) -> list[str]:
        facts = []
        for sub in ast.walk(elem):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == attr
                and is_lock_expr(sub.func.value)
            ):
                facts.append(f"lock:{_terminal_ident(sub.func.value)}")
        return facts

    analysis = GenKillAnalysis(
        gen=lambda e: acq_rel(e, "acquire"),
        kill=lambda e: acq_rel(e, "release"),
        mode=MAY,
    )
    for _qual, fn in iter_functions(ctx.tree):
        for stmt in fn.body:
            structural(stmt, None)
        result = solve(analysis, build_cfg(fn))
        for elem, facts in result.iter_elements():
            held = sorted(f.split(":", 1)[1] for f in facts)
            if not held:
                continue
            for sub in ast.walk(elem):
                if isinstance(sub, ast.Call):
                    report(sub, f"'{held[0]}'")
    return out


class BlockingUnderLockRule(Rule):
    id = "X802"
    name = "blocking-call-under-lock"
    description = (
        "blocking I/O or executor call while holding a lock (with-block "
        "or acquire/release dataflow)"
    )

    def check(self, ctx: FileContext) -> list[Violation]:
        return _check_held_locks(
            self, ctx, _is_blocking,
            lambda desc, lock: (
                f"blocking call {desc} while holding lock {lock} — "
                "convoy/deadlock hazard; release the lock first"
            ),
        )


class SpawnUnderLockRule(Rule):
    id = "X803"
    name = "process-spawn-under-lock"
    description = "process creation while holding a lock"

    def check(self, ctx: FileContext) -> list[Violation]:
        return _check_held_locks(
            self, ctx, _is_spawn,
            lambda desc, lock: (
                f"process spawn {desc} while holding lock {lock} — the "
                "child inherits the lock state and can deadlock on first "
                "contention"
            ),
        )


CONCURRENCY_RULES: tuple[Rule, ...] = (
    SharedStateFromWorkersRule(),
    BlockingUnderLockRule(),
    SpawnUnderLockRule(),
)

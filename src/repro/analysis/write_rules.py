"""Write-path crash-consistency rules (W-family).

PR 5 proved the storage commit protocol *dynamically* with a 50-seed
chaos corpus; these rules prove the ordering *statically*, on every
CFG path.  The protocol (``docs/INVARIANTS.md``): durable bytes are
``write`` → ``flush`` → ``fsync`` → commit (footer append, or
``os.replace``/``truncate``), in that order, on all paths.

The analysis is a may-dataflow (:mod:`repro.analysis.dataflow`) over
three fact kinds per handle:

* ``dirty:<h>`` — ``<h>`` has buffered writes not yet ``flush``-ed;
* ``unsynced:<h>`` — bytes written to ``<h>`` (or a path, for
  ``Path.write_bytes``) that no ``os.fsync`` has made durable;
* ``commit:<h>`` — a *footer/commit record* was written (a write whose
  payload involves a ``*footer*`` value) and is not yet fsynced.

Rules
-----
W901
    An ``unsynced``/``commit`` fact reaches a commit point
    (``os.replace``/``os.rename``/``truncate``): the commit can land
    while the data it commits is still volatile — exactly the torn
    state the chaos harness hunts.
W902
    A ``commit`` fact survives to function exit on some path: a footer
    was written but never fsynced, so "committed" epochs can vanish on
    power loss.
W903
    ``os.fsync`` on a handle whose ``dirty`` fact is set: fsync only
    syncs the kernel's bytes, not Python's userspace buffer — the
    flush is missing.

Handles are local names or ``self.<attr>`` expressions.  Calls to
same-module helpers that transitively reach ``write``/``fsync`` (via
the intra-module call graph) gen/kill facts under the ``self`` key —
one durable handle per object is the storage layer's idiom, and the
approximation is documented in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.cfg import build_cfg
from repro.analysis.core import (
    FileContext,
    Rule,
    Violation,
    build_call_graph,
    iter_functions,
    qualified_name,
    reachable,
)
from repro.analysis.dataflow import Facts, GenKillAnalysis, solve

#: The on-disk layer the W-family governs.
WRITE_SCOPE = ("repro.storage",)

_WRITE_METHODS = frozenset({"write", "writelines"})
_PATH_WRITE_METHODS = frozenset({"write_bytes", "write_text"})
_COMMIT_QUALIFIED = frozenset({"os.replace", "os.rename"})


def _handle_key(expr: ast.expr) -> str | None:
    """Identify a handle: a local name, or a ``self.<attr>``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id in ("self", "cls")
    ):
        return f"self.{expr.attr}"
    return None


def _mentions_footer(call: ast.Call) -> bool:
    """Does the write payload involve a ``*footer*`` value?"""
    for arg in [*call.args, *[kw.value for kw in call.keywords]]:
        for sub in ast.walk(arg):
            ident = None
            if isinstance(sub, ast.Name):
                ident = sub.id
            elif isinstance(sub, ast.Attribute):
                ident = sub.attr
            if ident is not None and "footer" in ident.lower():
                return True
    return False


def _self_keys(key: str | None) -> list[str]:
    """Fact keys one event touches under the one-handle-per-object idiom."""
    if key is None:
        return []
    if key.startswith("self."):
        return [key, "self"]
    return [key]


@dataclass
class _Event:
    """One ordered gen/kill/check step inside a CFG element."""

    kind: str  # write | flush | fsync | commit
    node: ast.Call
    gen: set[str] = field(default_factory=set)
    kill: set[str] = field(default_factory=set)
    #: human label for commit points
    label: str = ""


class _EventExtractor:
    """Turns CFG elements into ordered W-fact events.

    ``helpers_*`` hold the same-module functions that transitively
    reach a write/flush/fsync (so ``self._write_payload(...)`` counts
    as a write to the object's handle).
    """

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        graph = build_call_graph(ctx.tree)
        defined = set(graph)
        self.helpers_write = {
            t for t in defined if reachable(graph, t) & _WRITE_METHODS
        }
        self.helpers_fsync = {
            t for t in defined if "fsync" in reachable(graph, t)
        }
        self._cache: dict[int, list[_Event]] = {}

    def events(self, elem: ast.AST) -> list[_Event]:
        cached = self._cache.get(id(elem))
        if cached is not None:
            return cached
        out: list[_Event] = []
        calls = sorted(
            (n for n in ast.walk(elem) if isinstance(n, ast.Call)),
            key=lambda c: (c.lineno, c.col_offset),
        )
        for call in calls:
            out.extend(self._classify(call))
        self._cache[id(elem)] = out
        return out

    def _classify(self, call: ast.Call) -> list[_Event]:
        func = call.func
        qual = qualified_name(func, self.ctx.aliases)
        if qual in _COMMIT_QUALIFIED:
            return [_Event("commit", call, label=f"{qual}()")]
        if not isinstance(func, ast.Attribute):
            # bare helper call: f(...) where f reaches a write/fsync
            if isinstance(func, ast.Name):
                return self._helper_events(call, func.id)
            return []
        key = _handle_key(func.value)
        attr = func.attr
        if attr in _WRITE_METHODS and key is not None:
            gen = {f"dirty:{k}" for k in _self_keys(key)}
            gen |= {f"unsynced:{k}" for k in _self_keys(key)}
            if _mentions_footer(call):
                gen |= {f"commit:{k}" for k in _self_keys(key)}
            return [_Event("write", call, gen=gen)]
        if attr in _PATH_WRITE_METHODS and key is not None:
            # Path.write_bytes: the OS has the bytes but no fsync ran
            gen = {f"unsynced:{k}" for k in _self_keys(key)}
            if _mentions_footer(call):
                gen |= {f"commit:{k}" for k in _self_keys(key)}
            return [_Event("write", call, gen=gen)]
        if attr == "flush" and key is not None:
            return [
                _Event(
                    "flush", call,
                    kill={f"dirty:{k}" for k in _self_keys(key)},
                )
            ]
        if attr in ("close",) and key is not None:
            # close() flushes userspace buffers (but does not fsync)
            return [
                _Event(
                    "flush", call,
                    kill={f"dirty:{k}" for k in _self_keys(key)},
                )
            ]
        if attr == "truncate":
            return [_Event("commit", call, label=".truncate()")]
        if attr == "fsync" and (qual == "os.fsync" or qual is None):
            return [self._fsync_event(call)]
        if isinstance(func.value, ast.Name) and func.value.id in (
            "self", "cls",
        ):
            return self._helper_events(call, attr)
        return []

    def _helper_events(self, call: ast.Call, name: str) -> list[_Event]:
        out: list[_Event] = []
        if name in self.helpers_write:
            gen = {"dirty:self", "unsynced:self"}
            if _mentions_footer(call):
                gen.add("commit:self")
            out.append(_Event("write", call, gen=gen))
        if name in self.helpers_fsync:
            # a helper that reaches os.fsync is assumed to flush too;
            # W903 only audits *direct* os.fsync calls
            out.append(
                _Event(
                    "fsync_helper", call,
                    kill={"dirty:self", "unsynced:self", "commit:self"},
                )
            )
        return out

    def _fsync_event(self, call: ast.Call) -> _Event:
        key: str | None = None
        if call.args:
            arg = call.args[0]
            # the idiomatic os.fsync(fh.fileno())
            if (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Attribute)
                and arg.func.attr == "fileno"
            ):
                key = _handle_key(arg.func.value)
            else:
                key = _handle_key(arg)
        if key is None:
            # raw fd or dynamic expression: conservatively syncs all
            kill = {"*"}
        else:
            kill = set()
            for k in _self_keys(key):
                kill |= {f"dirty:{k}", f"unsynced:{k}", f"commit:{k}"}
        return _Event("fsync", call, kill=kill)


def _apply(facts: Facts, event: _Event) -> Facts:
    if "*" in event.kill:
        facts = frozenset()
    elif event.kill:
        facts = facts - frozenset(event.kill)
    return facts | frozenset(event.gen)


def _net_gen_kill(events: list[_Event]) -> tuple[set[str], set[str]]:
    """Net element transfer equivalent to applying events in order."""
    gen: set[str] = set()
    kill: set[str] = set()
    for ev in events:
        if "*" in ev.kill:
            gen.clear()
            kill.add("*")
        else:
            for f in ev.kill:
                gen.discard(f)
                kill.add(f)
        for f in ev.gen:
            kill.discard(f)
            gen.add(f)
    return gen, kill


class _WChecker:
    """Runs the three W checks over every function of a file."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.extractor = _EventExtractor(ctx)

    def check_fn(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[tuple[str, ast.AST, str]]:
        extractor = self.extractor
        cfg = build_cfg(fn)

        def gen(elem: ast.AST) -> set[str]:
            return _net_gen_kill(extractor.events(elem))[0]

        def kill(elem: ast.AST) -> set[str]:
            out = _net_gen_kill(extractor.events(elem))[1]
            if "*" in out:
                # the solver kills exact strings; expand the wildcard
                # over every fact any element can gen
                full: set[str] = set()
                for e in cfg.elements():
                    full |= _net_gen_kill(extractor.events(e))[0]
                out = (out - {"*"}) | full
            return out

        result = solve(GenKillAnalysis(gen=gen, kill=kill), cfg)
        findings: list[tuple[str, ast.AST, str]] = []

        # W901/W903: simulate event order inside each element, starting
        # from the solved facts-before state
        for elem, facts in result.iter_elements():
            for event in extractor.events(elem):
                if event.kind == "commit":
                    pending = sorted(
                        f for f in facts
                        if f.startswith(("unsynced:", "commit:"))
                    )
                    if pending:
                        what = pending[0].split(":", 1)[1]
                        findings.append(
                            (
                                "W901", event.node,
                                f"commit point {event.label} reached with "
                                f"unsynced write to '{what}' on some path "
                                "— os.fsync the data before committing",
                            )
                        )
                elif event.kind == "fsync":
                    dirty = sorted(f for f in facts if f.startswith("dirty:"))
                    if dirty:
                        what = dirty[0].split(":", 1)[1]
                        findings.append(
                            (
                                "W903", event.node,
                                f"os.fsync on '{what}' while its userspace "
                                "buffer is dirty on some path — call "
                                ".flush() first (fsync only syncs kernel "
                                "bytes)",
                            )
                        )
                facts = _apply(facts, event)

        # W902: a footer write that no path fsyncs before exit
        exit_facts = result.facts_at_exit()
        commits = sorted(f for f in exit_facts if f.startswith("commit:"))
        if commits:
            site = self._first_commit_site(cfg)
            findings.append(
                (
                    "W902", site,
                    "footer/commit record written but never fsynced before "
                    "function exit on some path — durability of the epoch "
                    "is not guaranteed",
                )
            )
        return findings

    def _first_commit_site(self, cfg: object) -> ast.AST:
        for elem in cfg.elements():  # type: ignore[attr-defined]
            for event in self.extractor.events(elem):
                if any(f.startswith("commit:") for f in event.gen):
                    return event.node
        return ast.Pass(lineno=1, col_offset=0)


class _WRuleBase(Rule):
    scope = WRITE_SCOPE

    def check(self, ctx: FileContext) -> list[Violation]:
        checker = _WChecker(ctx)
        out: list[Violation] = []
        for _qual, fn in iter_functions(ctx.tree):
            for rule_id, node, message in checker.check_fn(fn):
                if rule_id == self.id:
                    out.append(self.violation(ctx, node, message))
        return out


class UnsyncedCommitRule(_WRuleBase):
    id = "W901"
    name = "commit-with-unsynced-write"
    description = (
        "os.replace/rename/truncate commit point reachable with an "
        "unsynced write on some CFG path"
    )


class FooterNeverSyncedRule(_WRuleBase):
    id = "W902"
    name = "footer-write-never-fsynced"
    description = (
        "footer/commit record written but not fsynced before function "
        "exit on some CFG path"
    )


class FsyncDirtyBufferRule(_WRuleBase):
    id = "W903"
    name = "fsync-with-dirty-buffer"
    description = (
        "os.fsync on a handle whose userspace buffer may be unflushed"
    )


WRITE_RULES: tuple[Rule, ...] = (
    UnsyncedCommitRule(),
    FooterNeverSyncedRule(),
    FsyncDirtyBufferRule(),
)

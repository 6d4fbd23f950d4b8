"""Project-wide call graph for whole-program lint rules.

Extends the intra-module, terminal-name call graph in
:mod:`repro.analysis.core` to a graph over *every* analyzed file, with
import-aware edge resolution.  The X (cross-thread safety) family uses
it to answer "which functions can run on a worker thread?" — a
reachability question that spans modules (a ``repro.query.service``
worker thread reaches ``probe_entries`` in ``repro.exec.work`` through
``PartitionedStore.query``).

Resolution is deliberately conservative:

* a bare call ``f(...)`` resolves through the file's import alias map
  (``from repro.exec.work import probe_entries``) to a definition in
  another analyzed file, or to a same-file definition of that name;
* an attribute call ``mod.f(...)`` resolves when ``mod`` is an import
  alias of an analyzed module that defines ``f``;
* ``self.m(...)`` / ``cls.m(...)`` resolve to a method named ``m``
  in the same file;
* any other attribute call (``obj.m(...)`` on an unknown object)
  resolves by terminal name *within the same file only* — matching it
  project-wide would drag half the repo into every reachable set
  through common method names like ``get`` or ``close``.

Unresolvable calls simply produce no edge; reachability is therefore
an under-approximation across dynamic dispatch, which is the right
trade-off for rules whose findings must be actionable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.core import FileContext, iter_functions


def _file_key(ctx: FileContext) -> str:
    """Stable per-file namespace: the module path, or the file path."""
    return ctx.module if ctx.module is not None else str(ctx.path)


@dataclass(frozen=True)
class FunctionDefInfo:
    """One function/method definition known to the project graph."""

    key: str          # "<file key>::<qualname>"
    file_key: str
    qualname: str     # "Class.method", "outer.inner", or "func"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: FileContext

    @property
    def terminal(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ProjectCallGraph:
    """Import-aware call graph across all analyzed files."""

    nodes: dict[str, FunctionDefInfo] = field(default_factory=dict)
    edges: dict[str, set[str]] = field(default_factory=dict)
    #: file key -> terminal name -> def keys in that file
    _by_file_terminal: dict[str, dict[str, list[str]]] = field(
        default_factory=dict
    )
    #: module name -> top-level function name -> def key
    _module_toplevel: dict[str, dict[str, str]] = field(default_factory=dict)

    # ------------------------------------------------------------ building

    @classmethod
    def build(cls, ctxs: list[FileContext]) -> "ProjectCallGraph":
        graph = cls()
        for ctx in ctxs:
            graph._register_file(ctx)
        for ctx in ctxs:
            graph._link_file(ctx)
        return graph

    def _register_file(self, ctx: FileContext) -> None:
        file_key = _file_key(ctx)
        for qualname, fn in iter_functions(ctx.tree):
            info = FunctionDefInfo(
                key=f"{file_key}::{qualname}",
                file_key=file_key,
                qualname=qualname,
                node=fn,
                ctx=ctx,
            )
            self.nodes[info.key] = info
            self.edges.setdefault(info.key, set())
            self._by_file_terminal.setdefault(file_key, {}).setdefault(
                info.terminal, []
            ).append(info.key)
            if ctx.module is not None and "." not in qualname:
                self._module_toplevel.setdefault(ctx.module, {})[
                    qualname
                ] = info.key

    def _link_file(self, ctx: FileContext) -> None:
        file_key = _file_key(ctx)
        for qualname, fn in iter_functions(ctx.tree):
            caller = f"{file_key}::{qualname}"
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                target = self.resolve_call(ctx, call.func)
                if target is not None:
                    self.edges[caller].add(target)

    # ---------------------------------------------------------- resolution

    def resolve_call(
        self, ctx: FileContext, func: ast.expr
    ) -> str | None:
        """Def key a call expression resolves to, or ``None``."""
        file_key = _file_key(ctx)
        if isinstance(func, ast.Name):
            alias = ctx.aliases.get(func.id)
            if alias is not None and "." in alias:
                module, _, name = alias.rpartition(".")
                key = self._module_toplevel.get(module, {}).get(name)
                if key is not None:
                    return key
            return self._same_file(file_key, func.id)
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls"):
                    return self._same_file(file_key, func.attr)
                alias = ctx.aliases.get(base.id, base.id)
                key = self._module_toplevel.get(alias, {}).get(func.attr)
                if key is not None:
                    return key
            return self._same_file(file_key, func.attr)
        return None

    def _same_file(self, file_key: str, terminal: str) -> str | None:
        keys = self._by_file_terminal.get(file_key, {}).get(terminal)
        return keys[0] if keys else None

    # -------------------------------------------------------- reachability

    def reachable(self, roots: set[str]) -> set[str]:
        """Def keys transitively callable from ``roots`` (inclusive)."""
        seen: set[str] = set()
        stack = [r for r in roots if r in self.nodes]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self.edges.get(cur, ()))
        return seen

    # ------------------------------------------------------- entry points

    def thread_entry_points(self, ctxs: list[FileContext]) -> set[str]:
        """Def keys that can run on a worker thread.

        A function is a thread entry when it is (a) the ``target=`` of
        a ``Thread``/``Process`` construction, or (b) passed by
        reference into an executor ``submit``/``map`` call — the task
        seam every pool backend shares.
        """
        roots: set[str] = set()
        for ctx in ctxs:
            for call in ast.walk(ctx.tree):
                if not isinstance(call, ast.Call):
                    continue
                fn_refs: list[ast.expr] = []
                callee = call.func
                terminal = (
                    callee.attr
                    if isinstance(callee, ast.Attribute)
                    else callee.id
                    if isinstance(callee, ast.Name)
                    else ""
                )
                if terminal in ("Thread", "Process"):
                    for kw in call.keywords:
                        if kw.arg == "target":
                            fn_refs.append(kw.value)
                elif terminal in ("submit", "map"):
                    # submit(shard, fn, *args) / map(fn, items): any
                    # name argument that resolves to a known def counts
                    fn_refs.extend(call.args)
                for ref in fn_refs:
                    if isinstance(ref, (ast.Name, ast.Attribute)):
                        target = self.resolve_call(ctx, ref)
                        if target is not None:
                            roots.add(target)
        return roots

"""Shared infrastructure for ``carp-lint``.

The linter is a small AST-based rule engine specialized to this
repository's invariants (determinism in the simulation core, on-disk
format safety and write-path durability in the storage layer).  This
module provides the pieces every rule family builds on:

* :class:`Violation` — one finding, with location and rule id,
* :class:`FileContext` — a parsed file: source, AST, inferred module
  path, import alias map, and file-level suppressions,
* :class:`Rule` — the rule base class (per-file and project-wide
  checks, module-prefix scoping),
* qualified-name resolution for call sites (``np.random.default_rng``
  resolves through ``import numpy as np``),
* an intra-module call-graph builder used by the format-safety and
  write-path rules.

Suppressions come in three forms, from widest to narrowest:

* file-wide — ``# carp-lint: disable=D104`` (or ``disable=D104,F203``
  / ``disable=all``) anywhere in a file disables those rules for the
  whole file;
* next-line — ``# carp-lint: disable-next=RULE`` on its own line
  disables the rules for the next non-comment code line;
* same-line — a trailing ``# carp-lint: disable-line=RULE`` disables
  the rules for the line it sits on.

A finding is suppressed if *any* applicable form names its rule (or
``all``); narrower forms never re-enable what a wider form disabled.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

#: Matches file-wide ``disable=RULE[,RULE...]`` suppression comments.
_SUPPRESS_RE = re.compile(
    r"#\s*carp-lint:\s*disable\s*=\s*([A-Za-z0-9_,\s]+|all)"
)

#: Matches the line-scoped forms ``disable-next=`` / ``disable-line=``.
_LINE_SUPPRESS_RE = re.compile(
    r"#\s*carp-lint:\s*disable-(next|line)\s*=\s*([A-Za-z0-9_,\s]+|all)"
)


@dataclass(frozen=True)
class Violation:
    """One lint finding."""

    rule: str
    message: str
    path: str
    line: int
    col: int = 0

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }


def parse_suppressions(source: str) -> set[str]:
    """Rule ids disabled for a file via ``# carp-lint: disable=...``."""
    out: set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if m is None:
                continue
            spec = m.group(1)
            if spec.strip() == "all":
                out.add("all")
            else:
                out.update(r.strip() for r in spec.split(",") if r.strip())
    except tokenize.TokenizeError:
        pass
    return out


def _parse_rule_spec(spec: str) -> set[str]:
    if spec.strip() == "all":
        return {"all"}
    return {r.strip() for r in spec.split(",") if r.strip()}


def parse_line_suppressions(source: str) -> dict[int, set[str]]:
    """Line number -> rule ids disabled on that line.

    ``disable-line=`` applies to the comment's own line; ``disable-next=``
    applies to the next line that carries actual code (comments and
    blank lines between the directive and its target are skipped, so a
    directive can sit above a block comment).
    """
    out: dict[int, set[str]] = {}
    pending: set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                m = _LINE_SUPPRESS_RE.search(tok.string)
                if m is None:
                    continue
                rules = _parse_rule_spec(m.group(2))
                if m.group(1) == "line":
                    out.setdefault(tok.start[0], set()).update(rules)
                else:
                    pending |= rules
            elif pending and tok.type not in (
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENDMARKER,
            ):
                out.setdefault(tok.start[0], set()).update(pending)
                pending = set()
    except tokenize.TokenizeError:
        pass
    return out


def infer_module(path: Path) -> str | None:
    """Dotted module path for a file, when it lives under a ``repro`` tree.

    ``.../src/repro/sim/engine.py`` -> ``repro.sim.engine``; files
    outside any ``repro`` package (e.g. test fixtures) map to ``None``,
    which every scoped rule treats as *in scope* — that is what lets
    the fixture corpus under ``tests/analysis/fixtures/`` exercise the
    repo-specific rules.
    """
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    rel = parts[idx:]
    if rel[-1].endswith(".py"):
        rel[-1] = rel[-1][:-3]
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


def build_alias_map(tree: ast.AST) -> dict[str, str]:
    """Map local names to the fully qualified names they were imported as.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import time as now`` -> ``{"now": "time.time"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def qualified_name(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Resolve an attribute/name chain to a dotted qualified name.

    Returns e.g. ``numpy.random.default_rng`` for
    ``np.random.default_rng`` under ``import numpy as np``, or ``None``
    for dynamic expressions (subscripts, calls) that have no static
    name.
    """
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    root = aliases.get(cur.id, cur.id)
    parts.append(root)
    return ".".join(reversed(parts))


@dataclass
class FileContext:
    """Everything a rule needs to know about one analyzed file."""

    path: Path
    source: str
    tree: ast.Module
    module: str | None
    aliases: dict[str, str] = field(default_factory=dict)
    suppressed: set[str] = field(default_factory=set)
    line_suppressed: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def from_path(cls, path: Path | str) -> "FileContext":
        path = Path(path)
        source = path.read_text()
        return cls.from_source(source, path)

    @classmethod
    def from_source(cls, source: str, path: Path | str) -> "FileContext":
        path = Path(path)
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            source=source,
            tree=tree,
            module=infer_module(path),
            aliases=build_alias_map(tree),
            suppressed=parse_suppressions(source),
            line_suppressed=parse_line_suppressions(source),
        )

    def is_suppressed(self, rule_id: str, line: int | None = None) -> bool:
        if "all" in self.suppressed or rule_id in self.suppressed:
            return True
        if line is None:
            return False
        on_line = self.line_suppressed.get(line, ())
        return "all" in on_line or rule_id in on_line


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``/``name``/``description`` and implement
    :meth:`check` (per-file) and/or :meth:`check_project` (cross-file,
    e.g. writer/reader pairing).  ``scope`` restricts a rule to module
    prefixes; files whose module cannot be inferred (fixtures, ad-hoc
    scripts) are always in scope.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    #: Module prefixes the rule applies to; empty means everywhere.
    scope: tuple[str, ...] = ()

    def applies(self, ctx: FileContext) -> bool:
        if not self.scope:
            return True
        if ctx.module is None:
            return True
        return any(
            ctx.module == p or ctx.module.startswith(p + ".") for p in self.scope
        )

    def check(self, ctx: FileContext) -> list[Violation]:
        return []

    def check_project(self, ctxs: list[FileContext]) -> list[Violation]:
        return []

    def violation(
        self, ctx: FileContext, node: ast.AST | None, message: str
    ) -> Violation:
        line = getattr(node, "lineno", 1) if node is not None else 1
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Violation(self.id, message, str(ctx.path), line, col)


def iter_functions(
    tree: ast.Module,
) -> list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """All function/method definitions with qualified-ish names.

    Methods are reported as ``Class.method``; nested functions as
    ``outer.inner``.
    """
    out: list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                out.append((qual, child))
                visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(tree, "")
    return out


def called_names(
    node: ast.AST, aliases: dict[str, str] | None = None
) -> list[tuple[str, ast.Call]]:
    """(name, call node) for every call inside ``node``.

    The name is the *terminal* attribute (``self.log.append_batch`` ->
    ``append_batch``, bare ``negotiate(...)`` -> ``negotiate``), which
    is what the call-graph heuristics key on.
    """
    out: list[tuple[str, ast.Call]] = []
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Attribute):
            out.append((func.attr, sub))
        elif isinstance(func, ast.Name):
            out.append((func.id, sub))
    return out


def build_call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Intra-module call graph keyed by *terminal* names.

    Both ``Class.method`` and bare-function definitions are registered
    under their terminal name (``method``); edges record the terminal
    names of everything called from the body.  Deliberately
    approximate — names are matched without type resolution — but that
    is the right trade-off for "does some helper of this module reach a
    CRC / an fsync".
    """
    graph: dict[str, set[str]] = {}
    for qual, fn in iter_functions(tree):
        terminal = qual.split(".")[-1]
        callees = {name for name, _ in called_names(fn)}
        graph.setdefault(terminal, set()).update(callees)
    return graph


def reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    """Names transitively callable from ``start`` (including itself)."""
    seen: set[str] = set()
    stack = [start]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(graph.get(cur, ()))
    return seen

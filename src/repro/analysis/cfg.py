"""Per-function control-flow graphs for ``carp-lint`` dataflow rules.

The W (write-path crash-consistency) rules and X802 make *all-paths*
claims — "every durable write is fsynced before its commit lands", "no
path from an ``acquire`` to its ``release`` blocks" — which a flat AST
walk cannot decide.  This module
lowers one function body into a :class:`CFG` of basic blocks whose
elements are the original AST nodes, so the dataflow framework in
:mod:`repro.analysis.dataflow` can reason about paths.

Design points that matter to the rules built on top:

* **Branch conditions are elements.**  ``if fh.read():`` performs I/O,
  so test/iter expressions are appended to the block like statements —
  a transfer function sees every call the path executes.
* **Exception edges are per-statement and carry *pre*-state.**  Inside
  a ``try`` with handlers, every statement gets its own block with an
  :data:`EXC` edge to each handler.  Exceptional edges propagate the
  state from *before* the raising element: a statement that raises
  did not complete (``fh.write(b)`` failing dirtied nothing), which is
  exactly the semantics a may-analysis of completed effects needs.
* **``finally`` blocks are on every exit route.**  ``return``/``raise``
  /``break``/``continue`` inside ``try ... finally`` are routed through
  the finally body before reaching their target, so a ``finally:
  fh.close()`` kills the open-handle fact on all paths, including
  exceptional ones.
* **Loops are back edges**, not unrollings; the dataflow fixpoint
  handles them.  ``while``/``for`` else-clauses, ``match``, ``with``,
  and nested function/class statements (treated as opaque single
  elements — their bodies are separate CFGs) are all supported; the
  builder must accept every statement form without crashing (enforced
  by a property test over generated programs).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Edge kinds.  NORMAL edges propagate a block's post-transfer state;
#: EXC edges propagate the state from before the block's (single)
#: element, modelling "the statement raised before completing".
NORMAL = "normal"
EXC = "exception"


@dataclass
class Block:
    """One basic block: a run of AST elements with single entry/exit."""

    index: int
    elems: list[ast.AST] = field(default_factory=list)
    #: Outgoing edges as (target block index, edge kind).
    succs: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class CFG:
    """Control-flow graph of one function body."""

    blocks: list[Block]
    entry: int
    exit: int

    def preds(self) -> dict[int, list[tuple[int, str]]]:
        """Predecessors of every block as ``(source index, edge kind)``."""
        out: dict[int, list[tuple[int, str]]] = {b.index: [] for b in self.blocks}
        for block in self.blocks:
            for target, kind in block.succs:
                out[target].append((block.index, kind))
        return out

    def elements(self) -> list[ast.AST]:
        """Every element of every block (diagnostics and tests)."""
        return [e for b in self.blocks for e in b.elems]


class _Builder:
    """Single-use lowering of one function body to a :class:`CFG`."""

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.exit = self._new_block().index
        # innermost-last stacks of active constructs
        self._handlers: list[list[int]] = []   # handler entry blocks per try
        self._finallys: list[list[ast.stmt]] = []
        self._loops: list[tuple[int, int]] = []  # (header, after) per loop

    # ------------------------------------------------------------ plumbing

    def _new_block(self) -> Block:
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    def _edge(self, src: Block, dst: int, kind: str = NORMAL) -> None:
        if (dst, kind) not in src.succs:
            src.succs.append((dst, kind))

    def _exc_edges(self, src: Block) -> None:
        """Wire ``src`` to every active handler with exceptional edges."""
        for handlers in self._handlers:
            for handler in handlers:
                self._edge(src, handler, EXC)

    def _elem(self, cur: Block, node: ast.AST) -> Block:
        """Append one element; split the block when handlers are active.

        The split gives the element its own exceptional edges carrying
        pre-element state, so "this statement may raise mid-way" is
        representable per statement rather than per try-body.
        """
        if not self._handlers:
            cur.elems.append(node)
            return cur
        if cur.elems:
            nxt = self._new_block()
            self._edge(cur, nxt.index)
            cur = nxt
        cur.elems.append(node)
        self._exc_edges(cur)
        nxt = self._new_block()
        self._edge(cur, nxt.index)
        return nxt

    def _through_finallys(self, cur: Block, target: int) -> None:
        """Route an abrupt exit through active ``finally`` bodies.

        Each ``return``/``raise``/``break``/``continue`` gets its own
        copy of the pending finally bodies, innermost first (the same
        duplication the CPython compiler performs).  ``break`` and
        ``continue`` strictly only unwind finallys inside their loop;
        routing through all active ones is a harmless path
        over-approximation for gen/kill facts.
        """
        saved = self._finallys
        for i, body in enumerate(reversed(saved)):
            # statements inside a finally body must not re-enter the
            # finallys being unwound
            self._finallys = saved[: len(saved) - 1 - i]
            entry = self._new_block()
            self._edge(cur, entry.index)
            cur = self._stmts(entry, body)
        self._finallys = saved
        self._edge(cur, target)

    # ---------------------------------------------------------- statements

    def _stmts(self, cur: Block, body: list[ast.stmt]) -> Block:
        for stmt in body:
            cur = self._stmt(cur, stmt)
        return cur

    def _stmt(self, cur: Block, node: ast.stmt) -> Block:
        if isinstance(node, (ast.If,)):
            return self._if(cur, node)
        if isinstance(node, (ast.While,)):
            return self._while(cur, node)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return self._for(cur, node)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return self._with(cur, node)
        if isinstance(node, ast.Try):
            return self._try(cur, node)
        if isinstance(node, ast.Match):
            return self._match(cur, node)
        if isinstance(node, ast.Return):
            cur = self._elem(cur, node)
            self._through_finallys(cur, self.exit)
            return self._new_block()  # unreachable continuation
        if isinstance(node, ast.Raise):
            cur = self._elem(cur, node)
            if self._handlers:
                # _elem wired exceptional edges already
                pass
            else:
                self._through_finallys(cur, self.exit)
            return self._new_block()
        if isinstance(node, ast.Break):
            cur = self._elem(cur, node)
            if self._loops:
                self._through_finallys(cur, self._loops[-1][1])
            else:
                self._edge(cur, self.exit)
            return self._new_block()
        if isinstance(node, ast.Continue):
            cur = self._elem(cur, node)
            if self._loops:
                self._through_finallys(cur, self._loops[-1][0])
            else:
                self._edge(cur, self.exit)
            return self._new_block()
        # simple statements — including nested FunctionDef/ClassDef,
        # whose bodies are separate CFGs and stay opaque here
        return self._elem(cur, node)

    def _if(self, cur: Block, node: ast.If) -> Block:
        cur = self._elem(cur, node.test)
        after = self._new_block()
        then_entry = self._new_block()
        self._edge(cur, then_entry.index)
        then_end = self._stmts(then_entry, node.body)
        self._edge(then_end, after.index)
        if node.orelse:
            else_entry = self._new_block()
            self._edge(cur, else_entry.index)
            else_end = self._stmts(else_entry, node.orelse)
            self._edge(else_end, after.index)
        else:
            self._edge(cur, after.index)
        return after

    def _while(self, cur: Block, node: ast.While) -> Block:
        header = self._new_block()
        self._edge(cur, header.index)
        header_end = self._elem(header, node.test)
        after = self._new_block()
        body_entry = self._new_block()
        self._edge(header_end, body_entry.index)
        self._loops.append((header.index, after.index))
        body_end = self._stmts(body_entry, node.body)
        self._loops.pop()
        self._edge(body_end, header.index)
        if node.orelse:
            else_entry = self._new_block()
            self._edge(header_end, else_entry.index)
            else_end = self._stmts(else_entry, node.orelse)
            self._edge(else_end, after.index)
        else:
            self._edge(header_end, after.index)
        return after

    def _for(self, cur: Block, node: ast.For | ast.AsyncFor) -> Block:
        cur = self._elem(cur, node.iter)
        header = self._new_block()
        self._edge(cur, header.index)
        after = self._new_block()
        body_entry = self._new_block()
        self._edge(header, body_entry.index)
        self._loops.append((header.index, after.index))
        body_end = self._stmts(body_entry, node.body)
        self._loops.pop()
        self._edge(body_end, header.index)
        if node.orelse:
            else_entry = self._new_block()
            self._edge(header, else_entry.index)
            else_end = self._stmts(else_entry, node.orelse)
            self._edge(else_end, after.index)
        else:
            self._edge(header, after.index)
        return after

    def _with(self, cur: Block, node: ast.With | ast.AsyncWith) -> Block:
        for item in node.items:
            cur = self._elem(cur, item.context_expr)
        return self._stmts(cur, node.body)

    def _try(self, cur: Block, node: ast.Try) -> Block:
        after = self._new_block()
        handler_entries = [self._new_block() for _ in node.handlers]
        fin_entry = self._new_block() if node.finalbody else None
        if node.finalbody:
            self._finallys.append(node.finalbody)
        # per-statement exception targets inside the body: the handlers,
        # or — for a handler-less try/finally — the finally body itself
        targets = [b.index for b in handler_entries]
        if not targets and fin_entry is not None:
            targets = [fin_entry.index]
        if targets:
            self._handlers.append(targets)
        body_end = self._stmts(cur, node.body)
        if targets:
            self._handlers.pop()
        else_end = (
            self._stmts(body_end, node.orelse) if node.orelse else body_end
        )
        # handler bodies are built with this try's handlers popped (a
        # raise inside a handler propagates outward) but, when a finally
        # exists, with it still pending, so abrupt handler exits route
        # through it
        ends = [else_end]
        for entry, handler in zip(handler_entries, node.handlers):
            ends.append(self._stmts(entry, handler.body))
        if fin_entry is not None:
            self._finallys.pop()
            for end in ends:
                self._edge(end, fin_entry.index)
            fin_end = self._stmts(fin_entry, node.finalbody)
            # normal completion continues after the try; a propagating
            # exception leaves via later raise routing or the function
            # exit — both are reachable from `after`, so one normal
            # edge keeps every fact alive on both continuations
            self._edge(fin_end, after.index)
        else:
            for end in ends:
                self._edge(end, after.index)
        return after

    def _match(self, cur: Block, node: ast.Match) -> Block:
        cur = self._elem(cur, node.subject)
        after = self._new_block()
        matched_all = False
        for case in node.cases:
            case_entry = self._new_block()
            self._edge(cur, case_entry.index)
            end = case_entry
            if case.guard is not None:
                end = self._elem(end, case.guard)
            end = self._stmts(end, case.body)
            self._edge(end, after.index)
            if (
                isinstance(case.pattern, ast.MatchAs)
                and case.pattern.pattern is None
                and case.guard is None
            ):
                matched_all = True
        if not matched_all or not node.cases:
            self._edge(cur, after.index)
        return after


def build_cfg(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Lower one function definition into a :class:`CFG`.

    Statements (and branch/loop test expressions) become block
    elements in execution order; the synthetic exit block collects
    every return/raise/fall-through path.
    """
    builder = _Builder()
    entry = builder._new_block()
    end = builder._stmts(entry, fn.body)
    builder._edge(end, builder.exit)
    return CFG(blocks=builder.blocks, entry=entry.index, exit=builder.exit)


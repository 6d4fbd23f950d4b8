"""Forward dataflow over :mod:`repro.analysis.cfg` graphs.

A small gen/kill framework, specialized to what the lint rules need:
facts are strings ("dirty:fh", "unsynced:self", "lock:_mint_lock"),
the transfer function of one CFG element is ``(facts - kill) | gen``,
and block states are solved to fixpoint.

The join is union — "does this fact hold on *some* path here?"  The
rules phrase their invariants so a violation is a fact that *may*
survive to a program point (an unsynced write reaching a commit, a
held lock reaching a blocking call), which makes every check a
may-analysis reachability question.  The property tests cross-check
the fixpoint against brute-force path enumeration
(``tests/analysis/paths.py``).

Exceptional edges propagate the state from *before* the source block's
final element (see :mod:`repro.analysis.cfg`): a statement that raised
did not complete, so its gen/kill effect is excluded on that edge.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.analysis.cfg import EXC, CFG

Facts = frozenset[str]

#: ``gen``/``kill`` signature: AST element -> fact strings.
FactFn = Callable[[ast.AST], Iterable[str]]


@dataclass
class GenKillAnalysis:
    """One forward gen/kill problem over a CFG."""

    gen: FactFn
    kill: FactFn

    def transfer(self, facts: Facts, elem: ast.AST) -> Facts:
        return (facts - frozenset(self.kill(elem))) | frozenset(self.gen(elem))

    def transfer_block(
        self, facts: Facts, elems: list[ast.AST], drop_last: bool = False
    ) -> Facts:
        run = elems[:-1] if (drop_last and elems) else elems
        for elem in run:
            facts = self.transfer(facts, elem)
        return facts


@dataclass
class DataflowResult:
    """Per-block IN states of a solved analysis."""

    analysis: GenKillAnalysis
    cfg: CFG
    block_in: dict[int, Facts]

    def facts_at_exit(self) -> Facts:
        return self.block_in[self.cfg.exit]

    def iter_elements(self) -> Iterable[tuple[ast.AST, Facts]]:
        """Every element with the fact state holding just before it."""
        for block in self.cfg.blocks:
            facts = self.block_in[block.index]
            for elem in block.elems:
                yield elem, facts
                facts = self.analysis.transfer(facts, elem)


def solve(analysis: GenKillAnalysis, cfg: CFG) -> DataflowResult:
    """Round-robin fixpoint of ``analysis`` over ``cfg``.

    Nothing holds at function entry.  Unreachable blocks keep the empty
    state, so they never influence reachable results.
    """
    block_in: dict[int, Facts] = {b.index: frozenset() for b in cfg.blocks}
    preds = cfg.preds()

    # blocks unreachable from entry (dead code after a return/raise)
    # must not inject facts into live joins
    reachable = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        for succ, _ in cfg.blocks[stack.pop()].succs:
            if succ not in reachable:
                reachable.add(succ)
                stack.append(succ)

    # per-block OUT caches, split by edge kind: exceptional edges carry
    # the pre-final-element state
    def outs(index: int) -> tuple[Facts, Facts]:
        block = cfg.blocks[index]
        normal = analysis.transfer_block(block_in[index], block.elems)
        exc = analysis.transfer_block(block_in[index], block.elems, drop_last=True)
        return normal, exc

    # round-robin to fixpoint; rule CFGs are function-sized, so the
    # simple loop beats a fiddly worklist
    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            index = block.index
            if index not in reachable:
                continue  # dead code: keep the empty state
            joined: Facts = frozenset()
            for src, kind in preds[index]:
                if src in reachable:
                    normal, exc = outs(src)
                    joined |= exc if kind == EXC else normal
            if joined != block_in[index]:
                block_in[index] = joined
                changed = True
    return DataflowResult(analysis=analysis, cfg=cfg, block_in=block_in)


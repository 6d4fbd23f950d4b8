"""Brute-force path enumeration — the oracle for the dataflow solver.

:func:`enumerate_paths` walks every entry→exit path of a
:class:`~repro.analysis.cfg.CFG` and :func:`facts_along_path` folds a
gen/kill analysis along one of them.  On a loop-free function the
union of the folded paths is exactly what
:func:`repro.analysis.dataflow.solve` must report at the exit, which
``test_cfg_dataflow.py`` checks.  Nothing here is meant to be fast:
the path count is exponential in the number of branches, so the walk
stops at a cap and says so.
"""

from __future__ import annotations

import ast
from typing import NamedTuple

from repro.analysis.cfg import CFG, EXC
from repro.analysis.dataflow import Facts, GenKillAnalysis

#: One path: ``(element, effective)`` pairs in execution order.
Path = list[tuple[ast.AST, bool]]


class Paths(NamedTuple):
    """The enumerated paths, and whether the walk reached every one."""

    paths: list[Path]
    #: ``False`` when the walk stopped at ``max_paths`` with paths left
    complete: bool


def enumerate_paths(
    cfg: CFG, max_paths: int = 20000, max_edge_visits: int = 2
) -> Paths:
    """Entry→exit paths, each edge taken at most ``max_edge_visits``.

    ``effective`` is ``False`` for the final element of a block left
    via an exceptional edge (its effect did not happen — pre-state
    semantics).  For loop-free functions with ``max_edge_visits=1``
    a complete walk is exactly the set of simple paths.  The walk
    stops once it holds ``max_paths`` paths; :attr:`Paths.complete`
    then tells whether any path was left out.
    """
    blocks = {b.index: b for b in cfg.blocks}
    paths: list[Path] = []
    truncated = False

    def walk(
        index: int,
        trail: Path,
        edge_counts: dict[tuple[int, int, str], int],
    ) -> None:
        nonlocal truncated
        if index == cfg.exit:
            if len(paths) >= max_paths:
                truncated = True
            else:
                paths.append(trail)
            return
        if truncated:
            return
        block = blocks[index]
        for target, kind in block.succs:
            key = (index, target, kind)
            if edge_counts.get(key, 0) >= max_edge_visits:
                continue
            if kind == EXC and block.elems:
                # the last element raised before completing
                elems = [(e, True) for e in block.elems[:-1]]
                elems.append((block.elems[-1], False))
            else:
                elems = [(e, True) for e in block.elems]
            walk(
                target,
                trail + elems,
                {**edge_counts, key: edge_counts.get(key, 0) + 1},
            )

    walk(cfg.entry, [], {})
    return Paths(paths, not truncated)


def facts_along_path(analysis: GenKillAnalysis, path: Path) -> Facts:
    """Fold one enumerated path.

    Elements flagged non-effective (left via an exceptional edge before
    completing) are skipped — the same pre-state semantics the solver
    applies to exceptional edges.
    """
    facts: Facts = frozenset()
    for elem, effective in path:
        if effective:
            facts = analysis.transfer(facts, elem)
    return facts

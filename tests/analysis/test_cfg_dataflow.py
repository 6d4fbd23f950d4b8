"""CFG builder and dataflow engine: totality and path-exactness.

Two property suites back the whole X/W machinery:

* the CFG builder must accept *every* statement form Python can parse
  (hypothesis generates nested programs from a grammar of all
  statement templates) without crashing, and produce structurally
  sound graphs (edges in range, every element reachable);
* on loop-free functions, the may-dataflow fixpoint must agree
  *exactly* with brute-force path enumeration (``paths.py``) — the
  union of folding the transfer function along every simple
  entry→exit path.  When the enumeration stops at its cap, only the
  inclusion a subset of the paths still implies is checked: what some
  enumerated path may hold, the solver may hold.
"""

import ast

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cfg import EXC, NORMAL, build_cfg
from repro.analysis.dataflow import GenKillAnalysis, solve
from tests.analysis.paths import enumerate_paths, facts_along_path

# ----------------------------------------------------- program generation

_SIMPLE = [
    "x = {i}",
    "y += 1",
    "call({i})",
    "pass",
    "del z",
    "global g",
    "import os",
    "from os import path",
    "assert cond, 'msg'",
    "x: int = {i}",
    "(w := {i})",
    "async_done = True",
]

_EXITS = ["return x", "return", "raise ValueError('e')", "break", "continue"]


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


@st.composite
def _block(draw, depth: int) -> list[str]:
    """A list of statement lines at one indentation level."""
    lines: list[str] = []
    n = draw(st.integers(min_value=1, max_value=3))
    for _ in range(n):
        kind = draw(
            st.sampled_from(
                ["simple", "if", "while", "for", "try", "with", "match",
                 "def", "exit"]
                if depth > 0
                else ["simple", "exit"]
            )
        )
        i = draw(st.integers(min_value=0, max_value=9))
        if kind == "simple":
            lines.append(draw(st.sampled_from(_SIMPLE)).format(i=i))
        elif kind == "exit":
            lines.append(draw(st.sampled_from(_EXITS)))
        elif kind == "if":
            lines.append(f"if cond{i}:")
            lines.extend(_indent(draw(_block(depth - 1))))
            if draw(st.booleans()):
                lines.append("else:")
                lines.extend(_indent(draw(_block(depth - 1))))
        elif kind == "while":
            lines.append(f"while cond{i}:")
            lines.extend(_indent(draw(_block(depth - 1))))
            if draw(st.booleans()):
                lines.append("else:")
                lines.extend(_indent(draw(_block(depth - 1))))
        elif kind == "for":
            lines.append(f"for it{i} in seq:")
            lines.extend(_indent(draw(_block(depth - 1))))
        elif kind == "try":
            lines.append("try:")
            lines.extend(_indent(draw(_block(depth - 1))))
            handlers = draw(st.integers(min_value=0, max_value=2))
            for h in range(handlers):
                lines.append(f"except Exc{h}:")
                lines.extend(_indent(draw(_block(depth - 1))))
            if handlers == 0 or draw(st.booleans()):
                lines.append("finally:")
                lines.extend(_indent(draw(_block(depth - 1))))
        elif kind == "with":
            lines.append(f"with ctx({i}) as c:")
            lines.extend(_indent(draw(_block(depth - 1))))
        elif kind == "match":
            lines.append(f"match subj{i}:")
            lines.append("    case 0:")
            lines.extend(_indent(_indent(draw(_block(depth - 1)))))
            lines.append("    case _:")
            lines.extend(_indent(_indent(draw(_block(depth - 1)))))
        elif kind == "def":
            lines.append(f"def nested{i}():")
            lines.extend(_indent(draw(_block(depth - 1))))
    return lines


@st.composite
def _function_source(draw, depth: int = 3) -> str:
    body = draw(_block(depth))
    return "def f(cond, seq):\n" + "\n".join(_indent(body)) + "\n"


def _parse_fn(source: str) -> ast.FunctionDef:
    # break/continue outside a loop is a syntax error; wrap and retry
    # inside a loop so the grammar may emit them anywhere
    try:
        tree = ast.parse(source)
    except SyntaxError:
        inner = "\n".join(
            "    " + line for line in source.splitlines()[1:]
        )
        source = "def f(cond, seq):\n  while cond:\n" + inner + "\n"
        tree = ast.parse(source)
    fn = tree.body[0]
    assert isinstance(fn, ast.FunctionDef)
    return fn


@settings(max_examples=120, deadline=None)
@given(_function_source())
def test_cfg_builder_total_over_statement_forms(source):
    fn = _parse_fn(source)
    cfg = build_cfg(fn)
    indices = {b.index for b in cfg.blocks}
    assert cfg.entry in indices and cfg.exit in indices
    for block in cfg.blocks:
        for target, kind in block.succs:
            assert target in indices
            assert kind in (NORMAL, EXC)
    # exit has no successors: nothing runs after the function returns
    assert cfg.blocks[cfg.exit].succs == []


# --------------------------------------------- dataflow vs. brute force

_LOOPFREE = ["simple", "if", "try", "with", "exit"]


@st.composite
def _loopfree_block(draw, depth: int) -> list[str]:
    lines: list[str] = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(
            st.sampled_from(_LOOPFREE if depth > 0 else ["simple", "exit"])
        )
        i = draw(st.integers(min_value=0, max_value=9))
        if kind == "simple":
            lines.append(
                draw(
                    st.sampled_from(
                        ["x{i} = 1", "y{i} = 2", "use(x{i})", "pass"]
                    )
                ).format(i=i)
            )
        elif kind == "exit":
            lines.append(draw(st.sampled_from(["return", "raise E()"])))
        elif kind == "if":
            lines.append(f"if cond{i}:")
            lines.extend(_indent(draw(_loopfree_block(depth - 1))))
            if draw(st.booleans()):
                lines.append("else:")
                lines.extend(_indent(draw(_loopfree_block(depth - 1))))
        elif kind == "try":
            lines.append("try:")
            lines.extend(_indent(draw(_loopfree_block(depth - 1))))
            lines.append("except E:")
            lines.extend(_indent(draw(_loopfree_block(depth - 1))))
            if draw(st.booleans()):
                lines.append("finally:")
                lines.extend(_indent(draw(_loopfree_block(depth - 1))))
        elif kind == "with":
            lines.append(f"with ctx({i}):")
            lines.extend(_indent(draw(_loopfree_block(depth - 1))))
    return lines


def _stores_loads_analysis() -> GenKillAnalysis:
    """Facts: 'names with a pending store, not yet observed by a load'."""

    def gen(elem: ast.AST) -> list[str]:
        return [
            n.id
            for n in ast.walk(elem)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        ]

    def kill(elem: ast.AST) -> list[str]:
        return [
            n.id
            for n in ast.walk(elem)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        ]

    return GenKillAnalysis(gen=gen, kill=kill)


def _check_against_paths(source: str) -> bool:
    """Solve ``source`` and check the fixpoint against the paths.

    Returns whether the enumeration was complete (exact equality was
    checked) rather than truncated (only the inclusion was).
    """
    cfg = build_cfg(_parse_fn(source))
    paths, complete = enumerate_paths(cfg, max_paths=20000, max_edge_visits=1)
    assert paths, "a loop-free CFG must have at least one entry->exit path"

    analysis = _stores_loads_analysis()
    solved = solve(analysis, cfg).facts_at_exit()
    brute = frozenset().union(*(facts_along_path(analysis, p) for p in paths))
    ok = solved == brute if complete else brute <= solved
    assert ok, (
        "dataflow disagrees with brute force "
        f"({'complete' if complete else 'truncated'} enumeration) on:\n"
        f"{source}"
    )
    return complete


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_dataflow_matches_path_enumeration_on_loopfree(data):
    body = data.draw(_loopfree_block(2))
    _check_against_paths("def f(cond, seq):\n" + "\n".join(_indent(body)) + "\n")


def test_truncated_enumeration_checks_inclusion_only():
    # 2 * 2**15 paths, far past the cap: the walk reaches only paths
    # through the first arm, so its union lacks 'z' and may not be
    # read as exact
    lines = ["if cond:", "    y = 1", "else:", "    z = 1"]
    for i in range(15):
        lines += ["if cond:", f"    x{i} = 1"]
    source = "def f(cond, seq):\n" + "\n".join(_indent(lines)) + "\n"
    cfg = build_cfg(_parse_fn(source))
    paths, complete = enumerate_paths(cfg, max_paths=20000, max_edge_visits=1)
    assert not complete and len(paths) == 20000
    may = solve(_stores_loads_analysis(), cfg).facts_at_exit()
    assert {"y", "z"} <= may
    assert _check_against_paths(source) is False


def test_enumeration_at_the_cap_is_complete():
    source = "def f(cond, seq):\n    if cond:\n        x = 1\n"
    cfg = build_cfg(_parse_fn(source))
    assert enumerate_paths(cfg, max_paths=2, max_edge_visits=1).complete
    assert not enumerate_paths(cfg, max_paths=1, max_edge_visits=1).complete


def test_loop_fixpoint_reaches_loop_carried_facts():
    source = (
        "def f(cond, seq):\n"
        "    for item in seq:\n"
        "        x = 1\n"
        "    return x\n"
    )
    fn = _parse_fn(source)
    cfg = build_cfg(fn)

    # 'x' may be stored (loop taken) or not (zero iterations): the
    # may-fixpoint carries it around the back edge
    solved = solve(_stores_loads_analysis(), cfg)
    facts = next(
        facts for elem, facts in solved.iter_elements()
        if isinstance(elem, ast.Return)
    )
    assert "x" in facts

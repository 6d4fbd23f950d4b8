"""On-disk format-safety rule (F-family).

KoiDB's byte formats (``repro.storage``) are what ``carp fsck``
verifies *after* the fact.  A format string whose call sites drift
apart, or a reader that skips its CRC, fails the storage tests the
first time the bytes are read back; a format string that leaves byte
order and alignment to the host reads back fine on the host that wrote
it, so only a review-time check sees it:

F203
    A format string with no explicit byte-order prefix: native order
    and native alignment make the on-disk layout platform-dependent.
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, Violation, qualified_name

FORMAT_SCOPE = ("repro.storage",)

#: ``struct`` calls whose first argument is a format string.
_STRUCT_CALLS = frozenset(
    {
        "struct.pack",
        "struct.pack_into",
        "struct.unpack",
        "struct.unpack_from",
        "struct.calcsize",
    }
)


def module_string_constants(tree: ast.Module) -> dict[str, str]:
    """Top-level ``NAME = "literal"`` assignments of a module."""
    out: dict[str, str] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            out[node.targets[0].id] = node.value.value
    return out


def struct_formats(ctx: FileContext) -> list[tuple[str, ast.Call]]:
    """(format, call) for every ``struct`` call with a static format.

    The format is a string literal or a module-level string constant.
    """
    constants = module_string_constants(ctx.tree)
    out: list[tuple[str, ast.Call]] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        if qualified_name(node.func, ctx.aliases) not in _STRUCT_CALLS:
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            out.append((arg.value, node))
        elif isinstance(arg, ast.Name) and arg.id in constants:
            out.append((constants[arg.id], node))
    return out


class ByteOrderRule(Rule):
    id = "F203"
    name = "native-byte-order"
    description = "on-disk struct format without explicit byte order"
    scope = FORMAT_SCOPE

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        seen: set[tuple[str, int]] = set()
        for fmt, node in struct_formats(ctx):
            if fmt and fmt[0] in "<>=!":
                continue
            key = (fmt, node.lineno)
            if key in seen:
                continue
            seen.add(key)
            out.append(
                self.violation(
                    ctx, node,
                    f"struct format {fmt!r} uses native byte order / "
                    "alignment — on-disk formats must pin one (use '<')",
                )
            )
        return out


FORMAT_RULES: tuple[Rule, ...] = (ByteOrderRule(),)

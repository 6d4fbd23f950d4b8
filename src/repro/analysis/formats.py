"""On-disk format-safety rules (F-family).

KoiDB's byte formats (``repro.storage``) are what ``carp fsck``
verifies *after* the fact; these rules catch format drift at review
time, before any byte hits a disk:

F201
    ``struct.pack`` call whose argument count disagrees with its format
    string, or a tuple-unpacking ``struct.unpack`` whose target arity
    disagrees — the classic symptom of editing a ``*_FMT`` constant
    without updating every call site.
F202
    A format string that is packed somewhere but unpacked nowhere in
    the storage layer (or vice versa): a writer whose bytes no reader
    can parse, or a reader for bytes nothing produces.
F203
    A format string with no explicit byte-order prefix: native order
    and native alignment make the on-disk layout platform-dependent.
F204
    A block writer (``encode_*`` / ``build_*``) that emits no CRC, has
    no matching reader (``decode_*`` / ``parse_*``), or whose reader
    never verifies a CRC.  Detected via an intra-module call-graph
    walk, so readers that delegate verification to helpers
    (``parse_sstable`` -> ``parse_header`` -> ``zlib.crc32``) pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.core import (
    FileContext,
    Rule,
    Violation,
    build_call_graph,
    qualified_name,
    reachable,
)

FORMAT_SCOPE = ("repro.storage",)

_BYTE_ORDER_PREFIXES = "<>=!@"

_STRUCT_PACK = frozenset({"struct.pack", "struct.pack_into"})
_STRUCT_UNPACK = frozenset({"struct.unpack", "struct.unpack_from"})


def format_field_count(fmt: str) -> int:
    """Number of python values a struct format packs/unpacks.

    ``4s`` is one field, ``4x`` is zero, ``3I`` is three.
    """
    count = 0
    repeat = ""
    body = fmt[1:] if fmt and fmt[0] in _BYTE_ORDER_PREFIXES else fmt
    for ch in body:
        if ch.isdigit():
            repeat += ch
            continue
        if ch.isspace():
            repeat = ""
            continue
        n = int(repeat) if repeat else 1
        repeat = ""
        if ch in "sp":
            count += 1
        elif ch == "x":
            pass
        else:
            count += n
    return count


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


def resolve_format(
    node: ast.expr, constants: dict[str, str]
) -> tuple[str | None, str | None]:
    """(format value, constant name) for a struct call's first argument."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, None
    if isinstance(node, ast.Name) and node.id in constants:
        return constants[node.id], node.id
    return None, None


@dataclass(frozen=True)
class StructUse:
    """One resolved ``struct.pack``/``unpack``/``calcsize`` call site."""

    kind: str  # "pack" | "unpack" | "calcsize"
    fmt: str
    const_name: str | None
    node: ast.Call
    ctx: FileContext


def collect_struct_uses(ctx: FileContext) -> list[StructUse]:
    constants = module_string_constants(ctx.tree)
    out: list[StructUse] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        qual = qualified_name(node.func, ctx.aliases)
        if qual in _STRUCT_PACK:
            kind = "pack"
        elif qual in _STRUCT_UNPACK:
            kind = "unpack"
        elif qual == "struct.calcsize":
            kind = "calcsize"
        else:
            continue
        fmt, const = resolve_format(node.args[0], constants)
        if fmt is not None:
            out.append(StructUse(kind, fmt, const, node, ctx))
    return out


class _FRuleBase(Rule):
    scope = FORMAT_SCOPE


class PackArityRule(_FRuleBase):
    id = "F201"
    name = "pack-arity"
    description = "struct call arity disagrees with its format string"

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        uses = {id(u.node): u for u in collect_struct_uses(ctx)}
        for use in uses.values():
            fields = format_field_count(use.fmt)
            if use.kind == "pack":
                call = use.node
                if any(isinstance(a, ast.Starred) for a in call.args):
                    continue
                # pack(fmt, v...) vs pack_into(fmt, buffer, offset, v...)
                is_into = (
                    qualified_name(call.func, ctx.aliases) == "struct.pack_into"
                )
                nvalues = len(call.args) - (3 if is_into else 1)
                if nvalues != fields:
                    out.append(
                        self.violation(
                            ctx, call,
                            f"struct.pack format {use.fmt!r} has {fields} "
                            f"field(s) but {nvalues} value(s) are passed",
                        )
                    )
        # tuple-unpacking assignment arity
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Tuple):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            use = uses.get(id(node.value))
            if use is None or use.kind != "unpack":
                continue
            if any(isinstance(e, ast.Starred) for e in target.elts):
                continue
            fields = format_field_count(use.fmt)
            if len(target.elts) != fields:
                out.append(
                    self.violation(
                        ctx, node,
                        f"struct.unpack format {use.fmt!r} yields {fields} "
                        f"field(s) but {len(target.elts)} name(s) are bound",
                    )
                )
        return out


class ByteOrderRule(_FRuleBase):
    id = "F203"
    name = "native-byte-order"
    description = "on-disk struct format without explicit byte order"

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        seen: set[tuple[str, int]] = set()
        for use in collect_struct_uses(ctx):
            if use.fmt and use.fmt[0] in "<>=!":
                continue
            key = (use.fmt, use.node.lineno)
            if key in seen:
                continue
            seen.add(key)
            out.append(
                self.violation(
                    ctx, use.node,
                    f"struct format {use.fmt!r} uses native byte order / "
                    "alignment — on-disk formats must pin one (use '<')",
                )
            )
        return out


class UnpairedFormatRule(_FRuleBase):
    id = "F202"
    name = "unpaired-format"
    description = "struct format packed but never unpacked (or vice versa)"

    def check_project(self, ctxs: list[FileContext]) -> list[Violation]:
        packs: dict[str, StructUse] = {}
        unpacks: dict[str, StructUse] = {}
        for ctx in ctxs:
            if not self.applies(ctx):
                continue
            for use in collect_struct_uses(ctx):
                if use.kind == "pack":
                    packs.setdefault(use.fmt, use)
                elif use.kind == "unpack":
                    unpacks.setdefault(use.fmt, use)
        out: list[Violation] = []
        for fmt, use in sorted(packs.items()):
            if fmt not in unpacks:
                out.append(
                    self.violation(
                        use.ctx, use.node,
                        f"format {fmt!r} is packed here but never unpacked "
                        "anywhere in the storage layer — bytes nothing can "
                        "read back",
                    )
                )
        for fmt, use in sorted(unpacks.items()):
            if fmt not in packs:
                out.append(
                    self.violation(
                        use.ctx, use.node,
                        f"format {fmt!r} is unpacked here but never packed "
                        "anywhere in the storage layer — reader and writer "
                        "formats have drifted apart",
                    )
                )
        return out


#: Writer-name prefix -> acceptable reader-name prefixes.
_WRITER_READER_PREFIXES = {
    "encode_": ("decode_",),
    "build_": ("parse_", "decode_"),
}


def _crc_reachable(graph: dict[str, set[str]], start: str) -> bool:
    return any("crc" in name.lower() for name in reachable(graph, start))


class UncheckedReaderRule(_FRuleBase):
    id = "F204"
    name = "unchecked-reader"
    description = "block writer without a CRC-verifying reader"

    def check_project(self, ctxs: list[FileContext]) -> list[Violation]:
        in_scope = [c for c in ctxs if self.applies(c)]
        graphs = {id(c): build_call_graph(c.tree) for c in in_scope}
        # terminal function name -> (ctx, def node) across the project
        defs: dict[str, tuple[FileContext, ast.AST]] = {}
        from repro.analysis.core import iter_functions

        for ctx in in_scope:
            for qual, fn in iter_functions(ctx.tree):
                defs.setdefault(qual.split(".")[-1], (ctx, fn))

        out: list[Violation] = []
        for ctx in in_scope:
            graph = graphs[id(ctx)]
            for qual, fn in iter_functions(ctx.tree):
                name = qual.split(".")[-1]
                prefix = next(
                    (p for p in _WRITER_READER_PREFIXES if name.startswith(p)),
                    None,
                )
                if prefix is None:
                    continue
                stem = name[len(prefix):]
                if not _crc_reachable(graph, name):
                    out.append(
                        self.violation(
                            ctx, fn,
                            f"writer {name}() emits no CRC — every on-disk "
                            "block must be corruption-checkable",
                        )
                    )
                    continue
                readers = [
                    rp + stem
                    for rp in _WRITER_READER_PREFIXES[prefix]
                    if rp + stem in defs
                ]
                if not readers:
                    expected = " or ".join(
                        rp + stem for rp in _WRITER_READER_PREFIXES[prefix]
                    )
                    out.append(
                        self.violation(
                            ctx, fn,
                            f"writer {name}() has no matching reader "
                            f"({expected}) in the storage layer",
                        )
                    )
                    continue
                checked = False
                for reader in readers:
                    rctx, _rnode = defs[reader]
                    if _crc_reachable(graphs[id(rctx)], reader):
                        checked = True
                        break
                if not checked:
                    out.append(
                        self.violation(
                            ctx, fn,
                            f"reader {readers[0]}() for writer {name}() never "
                            "verifies a CRC on the bytes it parses",
                        )
                    )
        return out


FORMAT_RULES: tuple[Rule, ...] = (
    PackArityRule(),
    UnpairedFormatRule(),
    ByteOrderRule(),
    UncheckedReaderRule(),
)

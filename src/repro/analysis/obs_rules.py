"""Observability rules (O-family).

The observability stack (:mod:`repro.obs`) runs *inside* the
deterministic simulation core, so it must obey the same clock
discipline the core does: all instrumentation timestamps come from the
injected :class:`~repro.obs.Clock`, never the host clock.  These rules
keep the data plane honest about that.

Rules
-----
O501
    Wall-clock *module* use (``import time`` / ``import datetime`` or
    any ``time.*`` / ``datetime.*`` call) inside the simulation core,
    the kernels or the observability stack itself.  Banning the modules
    outright, rather than a list of known call sites, means new
    ``time`` APIs cannot sneak in.  The scope includes ``repro.perf``:
    the baseline gate holds only deterministic rows, and wall time is
    measured by the top-level ``ledger/`` alone.  The one sanctioned
    home for a host stopwatch is ``repro.tools`` (the ``carp trace``
    report footer).
O502
    Recording-instrumentation construction (``VirtualClock()``,
    ``ChromeTracer()``, ``BufferingTracer()``, ``MetricsRegistry()``,
    ``Obs(...)`` / ``Obs.recording()``) inside the data plane.
    Instrumentation is *injected* by the driver; data-plane modules
    accepting an ``obs`` parameter must default to the shared
    ``NULL_OBS`` constant, not build their own recording stack —
    otherwise a library import silently starts accumulating events and
    runs stop being zero-overhead when observability is off.
    A stack *derived* from the injected one is not a construction:
    ``obs.for_rank()`` is how ``CarpRun`` hands each rank a stack that
    records metrics into the driver's registry and buffers spans on a
    rank-local clock, which the driver merges in rank order.
    ``Obs.deltas()`` (a private registry, for the serve plane's worker
    threads) is not flagged either.
O503
    Dynamic span/metric names — an f-string, string concatenation, or
    ``str.format`` where an instrumentation call expects a name.  Names
    must be static string literals so the metric namespace stays
    greppable and its cardinality bounded at the call site.  Sanctioned
    bounded-cardinality exceptions (per-rank instrument names, whose
    cardinality is fixed by the run topology) carry a per-file
    ``# carp-lint: disable=O503`` with a rationale comment.
O504
    Resource acquisition at module or constructor scope inside
    ``repro.obs`` — an ``open()`` / ``Path.write_text``-style sink
    grab, or a wall-clock call, executed at import time or while
    building a telemetry/export object.  The telemetry plane must take
    its clock and its output sink *by injection* (the
    ``TelemetryStream(metrics, clock, sink)`` shape): a stream that
    opens its own file cannot be pointed at a test buffer, and one
    that reads the host clock is nondeterministic across backends.
    Method bodies may touch files (``ChromeTracer.write`` et al. are
    explicit persist calls); import and ``__init__`` may not.
O505
    Live observability reaching a profile builder.  Profile modules
    (``repro.obs.profile``) fold *archived artifacts* — decoded
    ``trace.json`` events and ``metrics.json`` snapshots — into
    deterministic cost-attribution profiles; importing the live stack
    (``Obs``, tracers, registries, clocks), accepting an ``obs``
    parameter, or constructing a recording stack would let a profile
    observe a *run* instead of its artifacts and break the
    bit-identical-across-backends contract (wall clock is already
    banned in this scope by O501).
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, Violation, qualified_name

#: Packages whose instrumentation must go through the Clock abstraction.
OBS_CLOCK_SCOPE = (
    "repro.core",
    "repro.shuffle",
    "repro.storage",
    "repro.sim",
    "repro.obs",
    "repro.exec",
    "repro.perf",
    "repro.kernels",
)

#: Data-plane packages that must receive instrumentation by injection.
OBS_INJECTION_SCOPE = (
    "repro.core",
    "repro.shuffle",
    "repro.storage",
    "repro.sim",
    "repro.exec",
)

#: Modules whose mere presence in instrumentation scope is a violation.
WALL_CLOCK_MODULES = frozenset({"time", "datetime"})

#: Qualified names that construct a *recording* observability stack.
RECORDING_CONSTRUCTORS = frozenset(
    {
        "repro.obs.VirtualClock",
        "repro.obs.clock.VirtualClock",
        "repro.obs.ChromeTracer",
        "repro.obs.tracer.ChromeTracer",
        "repro.obs.BufferingTracer",
        "repro.obs.buffer.BufferingTracer",
        "repro.obs.MetricsRegistry",
        "repro.obs.metrics.MetricsRegistry",
        "repro.obs.Obs",
        "repro.obs.Obs.recording",
    }
)


class WallClockModuleRule(Rule):
    id = "O501"
    name = "wall-clock-module"
    description = (
        "time/datetime module use in instrumentation scope — timestamps "
        "must come from the injected Clock"
    )
    scope = OBS_CLOCK_SCOPE

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in WALL_CLOCK_MODULES:
                        out.append(
                            self.violation(
                                ctx, node,
                                f"import of {alias.name!r} in instrumentation "
                                "scope — take timestamps from the injected "
                                "repro.obs.Clock instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue
                root = (node.module or "").split(".")[0]
                if root in WALL_CLOCK_MODULES:
                    out.append(
                        self.violation(
                            ctx, node,
                            f"import from {node.module!r} in instrumentation "
                            "scope — take timestamps from the injected "
                            "repro.obs.Clock instead",
                        )
                    )
            elif isinstance(node, ast.Call):
                qual = qualified_name(node.func, ctx.aliases)
                if qual is None:
                    continue
                root = qual.split(".")[0]
                if root in WALL_CLOCK_MODULES and "." in qual:
                    out.append(
                        self.violation(
                            ctx, node,
                            f"{qual}() in instrumentation scope — use the "
                            "injected repro.obs.Clock (virtual time) instead",
                        )
                    )
        return out


class InjectedInstrumentationRule(Rule):
    id = "O502"
    name = "injected-instrumentation"
    description = (
        "recording instrumentation constructed inside the data plane — "
        "observability stacks must be injected by the driver"
    )
    scope = OBS_INJECTION_SCOPE

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = qualified_name(node.func, ctx.aliases)
            if qual in RECORDING_CONSTRUCTORS:
                short = qual.rsplit(".", 1)[-1]
                out.append(
                    self.violation(
                        ctx, node,
                        f"{short}() constructed in the data plane — accept "
                        "an `obs: Obs | None = None` parameter and default "
                        "to the shared NULL_OBS constant instead",
                    )
                )
        return out


#: Packages whose instrument names must be static (``repro.obs`` is
#: excluded: the tracer/buffer plumbing forwards names it did not
#: originate, e.g. ``ChromeTracer.merge_events`` replaying records).
OBS_NAME_SCOPE = (
    "repro.core",
    "repro.shuffle",
    "repro.storage",
    "repro.sim",
    "repro.exec",
    "repro.query",
)

#: Method names whose *name* argument follows the track argument
#: (``tracer.begin(track, name, ts)``, ``obs.span(track, name, ...)``).
_NAME_AT_1 = frozenset({"begin", "complete", "instant", "span"})

#: Method names whose *name* argument comes first
#: (``metrics.counter(name)``, ``metrics.histogram(name, bounds)``).
_NAME_AT_0 = frozenset({"counter", "gauge", "histogram"})


def _dynamic_name(node: ast.expr) -> str | None:
    """Why a name expression is dynamic, or ``None`` if it is not.

    Only flags constructions that *assemble* a string at the call site
    — a plain variable may well hold a static literal bound elsewhere,
    and flagging it would force noisy inline names.
    """
    if isinstance(node, ast.JoinedStr):
        return "f-string"
    if isinstance(node, ast.BinOp):
        return "string concatenation"
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "format"):
        return "str.format()"
    return None


class StaticInstrumentNameRule(Rule):
    id = "O503"
    name = "static-instrument-names"
    description = (
        "span/metric name assembled dynamically at the call site — "
        "instrument names must be static string literals"
    )
    scope = OBS_NAME_SCOPE

    def _name_arg(self, node: ast.Call, method: str) -> ast.expr | None:
        for kw in node.keywords:
            if kw.arg == "name":
                return kw.value
        idx = 1 if method in _NAME_AT_1 else 0
        return node.args[idx] if len(node.args) > idx else None

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            method = func.attr
            if method not in _NAME_AT_1 | _NAME_AT_0:
                continue
            name_arg = self._name_arg(node, method)
            if name_arg is None:
                continue
            why = _dynamic_name(name_arg)
            if why is not None:
                out.append(
                    self.violation(
                        ctx, name_arg,
                        f"{method}() name built with {why} — use a static "
                        "string literal so the instrument namespace stays "
                        "greppable and bounded (per-rank names may suppress "
                        "with a rationale comment)",
                    )
                )
        return out


#: Attribute calls that acquire a file-backed sink (``Path`` and
#: file-object idioms); at module/constructor scope in ``repro.obs``
#: these hard-wire the telemetry output instead of injecting it.
_SINK_ACQUIRERS = frozenset(
    {"open", "write_text", "read_text", "write_bytes", "read_bytes"}
)


class InjectedTelemetrySinkRule(Rule):
    id = "O504"
    name = "injected-telemetry-sink"
    description = (
        "sink/clock acquired at module or constructor scope in repro.obs — "
        "telemetry and export code must take clock and output sink by "
        "injection"
    )
    scope = ("repro.obs",)

    def _flag(self, ctx: FileContext, node: ast.Call,
              where: str) -> Violation | None:
        qual = qualified_name(node.func, ctx.aliases)
        if qual == "open":
            return self.violation(
                ctx, node,
                f"open() at {where} scope — accept an injected sink (any "
                "object with .write) instead of opening files here",
            )
        if qual is not None:
            root = qual.split(".")[0]
            if root in WALL_CLOCK_MODULES and "." in qual:
                return self.violation(
                    ctx, node,
                    f"{qual}() at {where} scope — accept an injected "
                    "repro.obs.Clock instead of reading the host clock",
                )
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _SINK_ACQUIRERS):
            return self.violation(
                ctx, node,
                f".{node.func.attr}() at {where} scope — accept an injected "
                "sink instead of acquiring file-backed output here",
            )
        return None

    @staticmethod
    def _eager_calls(root: ast.stmt) -> list[ast.Call]:
        """Call nodes under ``root`` that run when the statement runs.

        Nested function and lambda bodies are pruned — defining a
        closure at import time is fine; only *executing* an acquiring
        call is not.
        """
        calls: list[ast.Call] = []
        stack: list[ast.AST] = [root]
        while stack:
            node = stack.pop()
            if node is not root and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(node, ast.Call):
                calls.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return calls

    def _scan(self, ctx: FileContext, body: list[ast.stmt],
              out: list[Violation]) -> None:
        """Flag acquiring calls that execute at import or construction.

        Module bodies descend into class bodies (class statements run
        at import time) and into ``__init__`` bodies (they run while
        building the object); every other function body is exempt —
        a method touching files is an explicit persist call.
        """
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name != "__init__":
                    continue
                for node in self._eager_calls(stmt):
                    violation = self._flag(ctx, node, "constructor")
                    if violation is not None:
                        out.append(violation)
                continue
            if isinstance(stmt, ast.ClassDef):
                self._scan(ctx, stmt.body, out)
                continue
            for node in self._eager_calls(stmt):
                violation = self._flag(ctx, node, "module")
                if violation is not None:
                    out.append(violation)

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        self._scan(ctx, ctx.tree.body, out)
        return out


#: Factories that hand out a *live* observability stack — the recording
#: constructors plus the null/delta accessors.  A profile builder may
#: not call any of them: even ``NULL_OBS`` reaching a fold means the
#: profile is wired to a run instead of to archived artifacts.
LIVE_STACK_FACTORIES = RECORDING_CONSTRUCTORS | frozenset(
    {
        "repro.obs.Obs.null",
        "repro.obs.Obs.deltas",
        "repro.obs.NULL_OBS",
    }
)


def _mentions_obs(annotation: ast.expr) -> bool:
    """Whether a parameter annotation names the live ``Obs`` type.

    Walks the annotation so unions (``Obs | None``), qualified forms
    (``repro.obs.Obs``) and string annotations all count.
    """
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id == "Obs":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "Obs":
            return True
        if isinstance(node, ast.Constant) and node.value == "Obs":
            return True
    return False


class ArchivedArtifactProfilerRule(Rule):
    id = "O505"
    name = "archived-artifact-profiler"
    description = (
        "live observability reaching a profile builder — profiles fold "
        "archived artifacts, never a running Obs stack"
    )
    scope = ("repro.obs.profile",)

    def applies(self, ctx: FileContext) -> bool:
        # Fixtures and ad-hoc files (module=None) are normally in scope
        # for every rule; this contract is specific enough that it only
        # makes sense for profile-builder code, so key on the filename.
        if ctx.module is None:
            return "profile" in ctx.path.stem
        return super().applies(ctx)

    def _params(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> list[ast.arg]:
        a = fn.args
        return [*a.posonlyargs, *a.args, *a.kwonlyargs]

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if (alias.name == "repro.obs"
                            or alias.name.startswith("repro.obs.")):
                        if alias.name == "repro.obs.profile":
                            continue
                        out.append(
                            self.violation(
                                ctx, node,
                                f"import of {alias.name!r} in a profile "
                                "builder — fold decoded trace.json / "
                                "metrics.json documents, not the live "
                                "observability stack",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if node.level == 0 and not (
                    mod == "repro.obs" or mod.startswith("repro.obs.")
                ):
                    continue
                if node.level == 0 and mod == "repro.obs.profile":
                    continue
                if node.level > 0 and ctx.module is None:
                    continue
                what = "." * node.level + mod
                out.append(
                    self.violation(
                        ctx, node,
                        f"import from {what!r} in a profile builder — "
                        "fold decoded trace.json / metrics.json "
                        "documents, not the live observability stack",
                    )
                )
            elif isinstance(node, ast.Call):
                qual = qualified_name(node.func, ctx.aliases)
                if qual in LIVE_STACK_FACTORIES:
                    short = qual.rsplit(".", 1)[-1]
                    out.append(
                        self.violation(
                            ctx, node,
                            f"{short}() called in a profile builder — a "
                            "profile may only read archived artifacts, "
                            "never construct or borrow an Obs stack",
                        )
                    )
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                for arg in self._params(node):
                    live = arg.arg == "obs" or (
                        arg.annotation is not None
                        and _mentions_obs(arg.annotation)
                    )
                    if live:
                        out.append(
                            self.violation(
                                ctx, arg,
                                f"parameter {arg.arg!r} injects live "
                                "observability into a profile builder — "
                                "take the decoded event list / metrics "
                                "snapshot instead",
                            )
                        )
        return out


OBS_RULES: tuple[Rule, ...] = (
    WallClockModuleRule(),
    InjectedInstrumentationRule(),
    StaticInstrumentNameRule(),
    InjectedTelemetrySinkRule(),
    ArchivedArtifactProfilerRule(),
)

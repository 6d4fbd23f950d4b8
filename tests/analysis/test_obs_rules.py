"""O-family rules: clock discipline and injected instrumentation."""

from pathlib import Path

from repro.analysis import lint_paths, select_rules
from repro.analysis.core import FileContext
from repro.analysis.obs_rules import OBS_RULES


def _rule(rule_id: str):
    return next(r for r in OBS_RULES if r.id == rule_id)


def _check(rule_id: str, source: str, path: str = "snippet.py"):
    ctx = FileContext.from_source(source, Path(path))
    rule = _rule(rule_id)
    return rule.check(ctx) if rule.applies(ctx) else []


def test_fixture_triggers_every_o_rule(fixtures_dir):
    result = lint_paths(
        [fixtures_dir / "bad_obs.py"], rules=select_rules(["O"])
    )
    by_rule = result.by_rule()
    # import time, from datetime import, time.perf_counter(), datetime.now()
    assert len(by_rule.get("O501", [])) == 4
    # VirtualClock, ChromeTracer, MetricsRegistry, Obs(...), Obs.recording()
    assert len(by_rule.get("O502", [])) == 5
    # counter concat, gauge f-string, complete .format()
    assert len(by_rule.get("O503", [])) == 3


def test_wall_clock_import_flagged_in_obs_package():
    src = "import time\n"
    ctx = FileContext.from_source(src, Path("src/repro/obs/clock.py"))
    assert len(_rule("O501").check(ctx)) == 1


def test_wall_clock_call_flagged_through_alias():
    src = "import time as t\nnow = t.monotonic()\n"
    violations = _check("O501", src)
    # the import and the call are each one finding
    assert len(violations) == 2


def test_perf_package_is_in_o501_scope():
    # the baseline gate holds only deterministic rows: no stopwatch there
    src = "import time\n"
    ctx = FileContext.from_source(src, Path("src/repro/perf/harness.py"))
    rule = _rule("O501")
    assert rule.applies(ctx)
    assert len(rule.check(ctx)) == 1


def test_kernels_package_is_in_o501_scope():
    # the kernels run inside the deterministic core: no host clock there
    src = "import time\nt0 = time.perf_counter()\n"
    ctx = FileContext.from_source(src, Path("src/repro/kernels/vector.py"))
    rule = _rule("O501")
    assert rule.applies(ctx)
    assert len(rule.check(ctx)) == 2


def test_tools_package_is_exempt_from_o501():
    src = "import time\nt0 = time.perf_counter()\n"
    ctx = FileContext.from_source(src, Path("src/repro/tools/trace_cli.py"))
    rule = _rule("O501")
    assert not rule.applies(ctx)


def test_recording_constructor_flagged_in_data_plane():
    src = (
        "from repro.obs import MetricsRegistry\n"
        "reg = MetricsRegistry()\n"
    )
    ctx = FileContext.from_source(src, Path("src/repro/core/carp_extra.py"))
    assert len(_rule("O502").check(ctx)) == 1


def test_recording_classmethod_flagged():
    src = "from repro.obs import Obs\nobs = Obs.recording()\n"
    violations = _check("O502", src)
    assert len(violations) == 1


def test_null_obs_constant_not_flagged():
    # the sanctioned pattern: import the shared null stack, no construction
    src = (
        "from repro.obs import NULL_OBS, Obs\n"
        "def f(obs=None):\n"
        "    return obs if obs is not None else NULL_OBS\n"
    )
    assert _check("O502", src) == []


def test_obs_package_may_construct_its_own_classes():
    # repro.obs itself defines/wires the stack; O502 scope excludes it
    src = "from repro.obs.clock import VirtualClock\nc = VirtualClock()\n"
    ctx = FileContext.from_source(src, Path("src/repro/obs/__init__.py"))
    assert not _rule("O502").applies(ctx)


def test_drivers_outside_scope_may_record():
    src = "from repro.obs import Obs\nobs = Obs.recording()\n"
    ctx = FileContext.from_source(src, Path("src/repro/tools/trace_cli.py"))
    assert not _rule("O502").applies(ctx)


def test_dynamic_metric_name_flagged():
    src = (
        "def f(obs, rank):\n"
        "    obs.metrics.counter(f'koidb.bytes.r{rank}').add(1)\n"
    )
    violations = _check("O503", src)
    assert len(violations) == 1
    assert "f-string" in violations[0].message


def test_dynamic_span_name_flagged_at_tracer_position():
    # tracer.complete carries the name in argument position 1
    src = (
        "def f(obs, track, level):\n"
        "    obs.tracer.complete(track, 'lvl ' + str(level), 0.0, 1.0)\n"
    )
    assert len(_check("O503", src)) == 1


def test_static_names_and_variables_not_flagged():
    src = (
        "NAME = 'koidb.flushes'\n"
        "def f(obs):\n"
        "    obs.metrics.counter('koidb.bytes_written').add(1)\n"
        "    obs.metrics.counter(NAME).add(1)\n"
        "    obs.tracer.begin(obs.track('flush', 'rank 0'), 'flush', 0.0)\n"
    )
    assert _check("O503", src) == []


def test_obs_package_exempt_from_o503():
    # the tracer plumbing forwards names it did not originate
    src = "def replay(self, track, name, ts):\n    self.begin(track, str(name), ts)\n"
    ctx = FileContext.from_source(src, Path("src/repro/obs/tracer.py"))
    assert not _rule("O503").applies(ctx)


def test_bad_telemetry_fixture_triggers_o504(fixtures_dir):
    result = lint_paths(
        [fixtures_dir / "bad_telemetry.py"], rules=select_rules(["O"])
    )
    by_rule = result.by_rule()
    # module open, module time.time, class-body read_text,
    # constructor open, constructor time.monotonic
    assert len(by_rule.get("O504", [])) == 5
    # everything else in the fixture is either clean or suppressed
    assert set(by_rule) == {"O504"}


def test_good_telemetry_fixture_is_o504_clean(fixtures_dir):
    result = lint_paths(
        [fixtures_dir / "good_telemetry.py"], rules=select_rules(["O"])
    )
    assert result.by_rule().get("O504", []) == []


def test_o504_flags_module_scope_open():
    violations = _check("O504", "SINK = open('t.jsonl', 'a')\n")
    assert len(violations) == 1
    assert "module scope" in violations[0].message


def test_o504_flags_constructor_wall_clock():
    src = (
        "import time\n"
        "class Exporter:\n"
        "    def __init__(self):\n"
        "        self.t0 = time.monotonic()\n"
    )
    violations = _check("O504", src)
    assert len(violations) == 1
    assert "constructor scope" in violations[0].message


def test_o504_injected_constructor_is_clean():
    src = (
        "class Stream:\n"
        "    def __init__(self, metrics, clock, sink):\n"
        "        self.sink = sink\n"
        "        self.next_due = clock.now() + 10.0\n"
    )
    assert _check("O504", src) == []


def test_o504_method_bodies_may_persist():
    # an explicit persist call (ChromeTracer.write-style) is sanctioned
    src = (
        "class Tracer:\n"
        "    def write(self, path):\n"
        "        with open(path, 'w') as fh:\n"
        "            fh.write('{}')\n"
    )
    assert _check("O504", src) == []


def test_o504_deferred_bodies_are_exempt():
    # defining a closure at import time is fine; only executing the
    # acquiring call is not
    src = (
        "def make_sink(path):\n"
        "    return open(path, 'a')\n"
        "FACTORY = lambda p: open(p, 'a')\n"
    )
    assert _check("O504", src) == []


def test_o504_applies_inside_obs_package_only():
    src = "SINK = open('t.jsonl', 'a')\n"
    rule = _rule("O504")
    obs_ctx = FileContext.from_source(
        src, Path("src/repro/obs/telemetry.py")
    )
    core_ctx = FileContext.from_source(src, Path("src/repro/core/carp.py"))
    assert rule.applies(obs_ctx)
    assert not rule.applies(core_ctx)


def test_bad_profile_fixture_triggers_o505(fixtures_dir):
    result = lint_paths(
        [fixtures_dir / "bad_profile.py"], rules=select_rules(["O"])
    )
    by_rule = result.by_rule()
    # import repro.obs.tracer, from repro.obs import Obs, `obs` param,
    # Obs.recording(), Obs-annotated param
    assert len(by_rule.get("O505", [])) == 5
    # everything else in the fixture is either clean or suppressed
    assert set(by_rule) == {"O505"}


def test_good_profile_fixture_is_o505_clean(fixtures_dir):
    result = lint_paths(
        [fixtures_dir / "good_profile.py"], rules=select_rules(["O"])
    )
    assert result.violations == []


def test_o505_flags_live_stack_import():
    src = "from repro.obs import Obs\n"
    violations = _check("O505", src, path="profile_snippet.py")
    assert len(violations) == 1
    assert "live observability stack" in violations[0].message


def test_o505_allows_profile_submodule_import():
    src = "from repro.obs.profile import fold\n"
    assert _check("O505", src, path="profile_snippet.py") == []


def test_o505_flags_obs_parameter_and_annotation():
    src = (
        "def fold(obs, events):\n"
        "    return events\n"
        "def join(events, source: 'Obs'):\n"
        "    return events\n"
    )
    violations = _check("O505", src, path="profile_snippet.py")
    assert len(violations) == 2


def test_o505_flags_null_obs_borrowing():
    # even the null stack is a run handle, not an artifact
    src = (
        "from repro.obs import Obs\n"
        "def fold(events):\n"
        "    return Obs.null()\n"
    )
    violations = _check("O505", src, path="profile_snippet.py")
    # the import and the factory call are each one finding
    assert len(violations) == 2


def test_o505_keys_fixtures_on_profile_stem():
    # the contract is profile-specific: other fixture files (e.g.
    # bad_telemetry.py) must not start tripping it
    src = "from repro.obs import Obs\n"
    rule = _rule("O505")
    assert rule.applies(FileContext.from_source(src, Path("my_profile.py")))
    assert not rule.applies(
        FileContext.from_source(src, Path("bad_telemetry.py"))
    )
    assert rule.applies(
        FileContext.from_source(src, Path("src/repro/obs/profile.py"))
    )
    assert not rule.applies(
        FileContext.from_source(src, Path("src/repro/obs/report.py"))
    )

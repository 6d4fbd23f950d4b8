"""Cross-executor profile determinism: the fold inherits bit-identity.

``trace.json`` is bit-identical across serial/process backends
(see ``test_trace_determinism.py``); the profile fold is pure integer
arithmetic over that archive, so the *profile* — json, folded text,
and exact reconciliation against the metrics snapshot — must be
bit-identical too.  This is the determinism contract lint rule O505
protects statically and this test enforces dynamically.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.exec import ProcessExecutor, SerialExecutor
from repro.obs import Obs, validate_trace_events
from repro.obs.profile import fold_trace_doc
from repro.traces.vpic import VpicTraceSpec, generate_timestep

OPTIONS = CarpOptions(
    pivot_count=32,
    oob_capacity=32,
    renegotiations_per_epoch=3,
    memtable_records=256,
    round_records=128,
    value_size=8,
)

EPOCHS = 2

BACKENDS = {
    "serial": SerialExecutor,
    "process": lambda: ProcessExecutor(2),
}


def _artifacts(out_dir, make_exec, seed: int):
    spec = VpicTraceSpec(
        nranks=6, particles_per_rank=500, value_size=8, seed=seed
    )
    obs = Obs.recording()
    with make_exec() as executor:
        with CarpRun(
            spec.nranks, out_dir, OPTIONS, obs=obs, executor=executor
        ) as run:
            for ep in range(EPOCHS):
                run.ingest_epoch(ep, generate_timestep(spec, ep))
    doc = obs.tracer.to_doc()
    assert validate_trace_events(doc) == []
    return doc, obs.metrics.snapshot()


@given(seed=st.integers(0, 2**16))
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_profile_bit_identical_across_executors(tmp_path_factory, seed):
    rendered = {}
    for name, make_exec in BACKENDS.items():
        doc, snapshot = _artifacts(
            tmp_path_factory.mktemp(f"prof_{name}"), make_exec, seed
        )
        profile = fold_trace_doc(doc)
        # every backend's profile reconciles exactly against its own
        # metrics snapshot — attribution drift on any backend is a bug
        assert profile.reconcile(snapshot) == [], name
        rendered[name] = (profile.to_json(), profile.to_folded())
    assert rendered["process"] == rendered["serial"]


def test_worker_spans_are_attributed_not_dropped(tmp_path_factory):
    """Backends must agree on a profile that contains real work.

    Guards against bit-identity holding only because worker-side flush
    spans were dropped from every backend's fold.
    """
    doc, snapshot = _artifacts(
        tmp_path_factory.mktemp("prof_content"), BACKENDS["serial"], seed=7
    )
    profile = fold_trace_doc(doc)
    phases = profile.phases()
    assert "flush" in phases and phases["flush"]["total_ns"] > 0
    assert "route" in phases and phases["route"]["total_ns"] > 0
    totals = profile.totals()
    assert totals["records"] > 0 and totals["bytes"] > 0

"""Cross-executor trace determinism: ``trace.json`` is in the contract.

Worker-side spans are recorded into rank-local ``Obs.deltas()``
timelines and merged into the driver's ``ChromeTracer`` in rank order
at the same barrier points on every backend, so the *entire* trace
document — including flush spans that execute on worker processes —
must be bit-identical across serial and process runs of the
same seeded workload.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.exec import ProcessExecutor, SerialExecutor
from repro.obs import Obs, validate_trace_events
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


def _trace_doc(out_dir, make_exec, seed: int) -> dict[str, object]:
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
    return doc


@given(seed=st.integers(0, 2**16))
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_trace_bit_identical_across_executors(tmp_path_factory, seed):
    docs = {
        name: _trace_doc(
            tmp_path_factory.mktemp(f"trace_{name}"), make_exec, seed
        )
        for name, make_exec in BACKENDS.items()
    }
    serialized = {
        name: json.dumps(doc, sort_keys=True) for name, doc in docs.items()
    }
    assert serialized["process"] == serialized["serial"]


def test_worker_flush_spans_present_on_every_backend(tmp_path_factory):
    """The merged trace must contain the rank-local flush spans.

    Guards against the failure mode where backends agree only because
    worker spans were silently dropped everywhere.
    """
    for name, make_exec in BACKENDS.items():
        doc = _trace_doc(
            tmp_path_factory.mktemp(f"flush_{name}"), make_exec, seed=7
        )
        events = doc["traceEvents"]
        assert isinstance(events, list)
        flush_pids = {
            e["pid"] for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
            and e.get("args", {}).get("name") == "flush"
        }
        assert flush_pids, f"{name}: no flush track declared"
        spans = [
            e for e in events
            if e.get("pid") in flush_pids and e.get("ph") in ("B", "E", "X")
        ]
        assert spans, f"{name}: no worker flush spans in the merged trace"

"""Cross-executor telemetry determinism: the stream is in the contract.

``telemetry.jsonl`` is sampled at barrier-aligned points (epoch end,
post-query, session close) where every backend's registry state has
converged, and its interval ticks are restricted to driver-scoped
prefixes, so the *entire* stream — bytes, request-id assignment, and
the per-request span attribution that rides on worker ``Obs.deltas()``
— must be bit-identical across serial and process runs of the
same seeded workload (the streaming sibling of
``test_trace_determinism.py``).
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Session
from repro.core.config import CarpOptions
from repro.exec import ProcessExecutor, SerialExecutor
from repro.obs import Obs
from repro.query.request import QueryRequest
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
QUERIES_PER_EPOCH = 2

BACKENDS = {
    "serial": SerialExecutor,
    "process": lambda: ProcessExecutor(2),
}


def _run(out_dir, make_exec, seed: int) -> dict[str, object]:
    spec = VpicTraceSpec(
        nranks=6, particles_per_rank=500, value_size=8, seed=seed
    )
    obs = Obs.recording()
    with make_exec() as executor:
        with Session(spec.nranks, out_dir, OPTIONS, obs=obs,
                     executor=executor, telemetry=True) as session:
            for ep in range(EPOCHS):
                session.ingest_epoch(ep, generate_timestep(spec, ep))
            store = session.store()
            for epoch in store.epochs():
                lo, hi = store.key_range(epoch)
                for q in range(QUERIES_PER_EPOCH):
                    width = (hi - lo) / 8
                    session.query(QueryRequest(
                        lo=lo + q * width, hi=lo + (q + 1) * width, epoch=epoch
                    ))
    telemetry = (out_dir / "telemetry.jsonl").read_bytes()
    exposition = (out_dir / "metrics.om").read_bytes()
    doc = obs.tracer.to_doc()
    events = doc["traceEvents"]
    assert isinstance(events, list)
    # every span's request attribution, in trace order
    attribution = [
        (e.get("name"), e.get("args", {}).get("request"))
        for e in events
        if isinstance(e.get("args"), dict) and "request" in e["args"]
    ]
    return {
        "telemetry": telemetry,
        "exposition": exposition,
        "attribution": attribution,
    }


@given(seed=st.integers(0, 2**16))
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_telemetry_bit_identical_across_executors(tmp_path_factory, seed):
    outcomes = {
        name: _run(
            tmp_path_factory.mktemp(f"telem_{name}"), make_exec, seed
        )
        for name, make_exec in BACKENDS.items()
    }
    serial = outcomes["serial"]
    process = outcomes["process"]
    assert process["telemetry"] == serial["telemetry"]
    assert process["exposition"] == serial["exposition"]
    assert process["attribution"] == serial["attribution"]


def test_request_ids_deterministic_and_attributed(tmp_path):
    """Ids follow mint order and tag worker-side spans on every backend."""
    outcome = _run(tmp_path / "out", BACKENDS["process"], seed=9)
    lines = [
        json.loads(line)
        for line in outcome["telemetry"].decode().splitlines()
    ]
    full = [d for d in lines if d["kind"] != "tick"]
    assert [d.get("request") for d in full] == [
        "ingest-000001", "ingest-000002",
        "query-000001", "query-000002", "query-000003", "query-000004",
        None,  # the final sample belongs to no single request
    ]
    attributed = {rid for _, rid in outcome["attribution"]}
    assert "ingest-000001" in attributed
    assert "query-000001" in attributed
    # worker-side flush spans carry the ingest id (the ("ctx", rid)
    # command replayed at the same stream position on every backend)
    flush_requests = {
        rid for name, rid in outcome["attribution"] if name == "flush"
    }
    assert flush_requests <= {"ingest-000001", "ingest-000002"}
    assert flush_requests

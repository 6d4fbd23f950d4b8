"""Scalar/vector kernel differential: observational equivalence.

The production kernels (:mod:`repro.kernels.vector`) promise the bytes
of the per-record oracle (``scalar.py`` beside this file), only
faster.  This suite proves it dynamically: the same seeded ingest run
with :func:`~tests.kernels.scalar.use_backend` swapping in ``scalar``
and ``vector`` must leave byte-identical log files,
an identical ``trace.json`` document, an identical metrics snapshot,
and a profile fold that reconciles exactly against that snapshot —
and the same range query against identically-ingested data must
return an equal ``QueryResponse.digest()``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Session
from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.obs import Obs, validate_trace_events
from repro.obs.profile import fold_trace_doc
from repro.query.request import QueryRequest
from repro.storage.log import list_logs
from repro.traces.vpic import VpicTraceSpec, generate_timestep

from tests.kernels.scalar import BACKENDS, use_backend

OPTIONS = CarpOptions(
    pivot_count=32,
    oob_capacity=32,
    renegotiations_per_epoch=3,
    memtable_records=256,
    round_records=128,
    value_size=8,
)

#: Value sizes the suite runs at: rid only (no filler), the paper's
#: 56 B, and a size that is not a whole number of 8-byte words (the
#: vector encoder gathers filler rows differently for it).
VALUE_SIZES = (8, 56, 60)

EPOCHS = 2

#: Query ranges spanning the VPIC energy domain: the full range, a
#: wide mid slice, a narrow slice, and the low-energy bulk.
RANGES = ((0.0, 1e6), (1.0, 40.0), (10.0, 12.0), (0.5, 2.5))


def _spec(seed: int, value_size: int) -> VpicTraceSpec:
    return VpicTraceSpec(
        nranks=4, particles_per_rank=300, value_size=value_size, seed=seed
    )


def _ingest_artifacts(out_dir, kernels: str, seed: int, value_size: int):
    """Run a recorded ingest under one kernel backend.

    Returns ``(log bytes by name, trace doc, metrics snapshot)``.
    """
    spec = _spec(seed, value_size)
    options = replace(OPTIONS, value_size=value_size)
    obs = Obs.recording()
    with use_backend(kernels):
        with CarpRun(spec.nranks, out_dir, options, obs=obs) as run:
            for ep in range(EPOCHS):
                run.ingest_epoch(ep, generate_timestep(spec, ep))
    doc = obs.tracer.to_doc()
    assert validate_trace_events(doc) == []
    logs = {p.name: p.read_bytes() for p in list_logs(out_dir)}
    return logs, doc, obs.metrics.snapshot()


@given(seed=st.integers(0, 2**16))
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@pytest.mark.parametrize("value_size", VALUE_SIZES)
def test_ingest_bit_identical_across_kernels(tmp_path_factory, seed, value_size):
    arts = {
        kernels: _ingest_artifacts(
            tmp_path_factory.mktemp(f"diff_{kernels}"), kernels, seed, value_size
        )
        for kernels in BACKENDS
    }
    scalar_logs, scalar_doc, scalar_snap = arts["scalar"]
    vector_logs, vector_doc, vector_snap = arts["vector"]
    # byte-identical on-disk logs, file by file
    assert sorted(vector_logs) == sorted(scalar_logs)
    for fname, blob in scalar_logs.items():
        assert vector_logs[fname] == blob, fname
    # identical trace archive and metrics snapshot
    assert json.dumps(vector_doc, sort_keys=True) == json.dumps(
        scalar_doc, sort_keys=True
    )
    assert vector_snap == scalar_snap
    # each backend's profile reconciles exactly (zero drift), and
    # the rendered profiles agree across kernels
    profiles = {}
    for kernels, (_logs, doc, snap) in arts.items():
        profile = fold_trace_doc(doc)
        assert profile.reconcile(snap) == [], kernels
        profiles[kernels] = (profile.to_json(), profile.to_folded())
    assert profiles["vector"] == profiles["scalar"]


def _query_digests(out_dir, kernels: str, seed: int, value_size: int):
    """Ingest then query under one kernel backend; return digests.

    Queries run both against the live store and against a pinned
    snapshot view (the latter exercises the pin-aware worker probe
    path), in values and keys-only modes.
    """
    spec = _spec(seed, value_size)
    digests: list[str] = []
    matched = 0
    with use_backend(kernels):
        with Session(
            spec.nranks, out_dir, options=replace(OPTIONS, value_size=value_size),
            record=True
        ) as session:
            for ep in range(EPOCHS):
                session.ingest_epoch(ep, generate_timestep(spec, ep))
            snapshot = session.snapshot()
            for epoch in range(EPOCHS):
                for lo, hi in RANGES:
                    for keys_only in (False, True):
                        req = QueryRequest(
                            lo=lo, hi=hi, epoch=epoch, keys_only=keys_only
                        )
                        live = session.query(req)
                        pinned = session.query(req, snapshot=snapshot)
                        assert live.ok and pinned.ok
                        # pinned view covers the same epochs here,
                        # so the payloads must already agree
                        assert pinned.digest() == live.digest()
                        digests.append(live.digest())
                        matched += len(live)
            session.release(snapshot)
    assert matched > 0, "differential queries never matched anything"
    return digests


@given(seed=st.integers(0, 2**16))
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@pytest.mark.parametrize("value_size", VALUE_SIZES)
def test_query_digests_equal_across_kernels(tmp_path_factory, seed, value_size):
    digests = {
        kernels: _query_digests(
            tmp_path_factory.mktemp(f"qdiff_{kernels}"), kernels, seed, value_size
        )
        for kernels in BACKENDS
    }
    assert digests["vector"] == digests["scalar"]

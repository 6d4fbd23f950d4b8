"""Shared fixtures: a small VPIC trace and pre-built CARP/sorted outputs.

Session-scoped so the (comparatively expensive) ingest runs once and
every query/metrics test reads from the same on-disk artifacts —
mirroring how the paper's artifacts chain ingest -> compaction ->
query client.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.storage.compactor import compact_epoch
from repro.traces.vpic import VpicTraceSpec, generate_timestep


SMALL_OPTIONS = CarpOptions(
    pivot_count=64,
    oob_capacity=64,
    renegotiations_per_epoch=4,
    memtable_records=512,
    round_records=256,
    value_size=8,
)


@pytest.fixture(scope="session")
def trace_spec() -> VpicTraceSpec:
    return VpicTraceSpec(nranks=8, particles_per_rank=2500, value_size=8, seed=11)


@pytest.fixture(scope="session")
def trace_streams(trace_spec):
    """Streams for two timesteps: an early and a late (heavier-tailed) one."""
    return {
        0: generate_timestep(trace_spec, 2),
        1: generate_timestep(trace_spec, 9),
    }


@pytest.fixture(scope="session")
def trace_keys(trace_streams):
    return {
        ep: np.concatenate([s.keys for s in streams])
        for ep, streams in trace_streams.items()
    }


@pytest.fixture(scope="session")
def trace_rids(trace_streams):
    return {
        ep: np.concatenate([s.rids for s in streams])
        for ep, streams in trace_streams.items()
    }


@pytest.fixture(scope="session")
def carp_output(tmp_path_factory, trace_spec, trace_streams):
    """CARP-partitioned on-disk output for both epochs, plus stats."""
    out = tmp_path_factory.mktemp("carp_out")
    stats = {}
    with CarpRun(trace_spec.nranks, out, SMALL_OPTIONS) as run:
        for epoch, streams in trace_streams.items():
            stats[epoch] = run.ingest_epoch(epoch, streams)
    return {"dir": out, "stats": stats, "options": SMALL_OPTIONS}


@pytest.fixture(scope="session")
def sorted_output(tmp_path_factory, carp_output):
    """Fully sorted (compacted) layout of epoch 0."""
    out = tmp_path_factory.mktemp("sorted_out")
    epoch_dir = compact_epoch(carp_output["dir"], out, 0, sst_records=1024)
    return epoch_dir

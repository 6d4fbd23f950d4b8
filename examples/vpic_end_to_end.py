#!/usr/bin/env python3
"""End-to-end workflow: the paper artifact's ``run_carp_demo.sh`` in Python.

Reproduces the guided demo of the CARP artifact evaluation:

1. write a VPIC micro-trace to disk in the artifact's ``eparticle``
   format (``T.<ts>/eparticle.<rank>``, raw little-endian float32),
2. replay the trace through CARP (the artifact's ``range-runner``),
3. analyze the partitioned output (``carp range-reader -a``),
4. run a range query against CARP output,
5. build the fully sorted layout (the artifact's ``compactor``),
6. run the same query against the sorted layout and compare.

Exits 1 unless both layouts return the same records, so the chain is
a check, not only a demo.

Run:  python examples/vpic_end_to_end.py
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import CarpOptions, CarpRun, PartitionedStore, compact_epoch
from repro.query.reader import analyze_store
from repro.traces import io as trace_io
from repro.traces.vpic import VpicTraceSpec, generate_timestep

# the artifact's micro-trace shape: 3 timesteps, 32 ranks
SPEC = VpicTraceSpec(
    nranks=32, particles_per_rank=4000,
    timesteps=(200, 2000, 3800), seed=13,
)
CARP_RANKS = 16  # the demo scripts run CARP with 16 ranks


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        trace_dir = root / "vpic-trace-small"

        # -- step 1: materialize the trace on disk (artifact A2 layout)
        for i, ts in enumerate(SPEC.timesteps):
            trace_io.write_timestep(trace_dir, ts, generate_timestep(SPEC, i))
        timesteps = trace_io.list_timesteps(trace_dir)
        print(f"trace written: timesteps {timesteps}, "
              f"{len(trace_io.list_ranks(trace_dir, timesteps[0]))} ranks each")

        # -- step 2: replay through CARP (one epoch per timestep)
        carp_dir = root / "plfs" / "particle"
        options = CarpOptions(value_size=8, pivot_count=256,
                              renegotiations_per_epoch=6)
        with CarpRun(CARP_RANKS, carp_dir, options) as run:
            for epoch, ts in enumerate(timesteps):
                from repro.core.records import RecordBatch

                streams = trace_io.read_timestep(trace_dir, ts, value_size=8)
                # re-shard the 32 trace ranks onto 16 CARP ranks
                merged = [
                    RecordBatch.concat([streams[r], streams[r + CARP_RANKS]])
                    for r in range(CARP_RANKS)
                ]
                stats = run.ingest_epoch(epoch, merged)
                print(f"  epoch {epoch} (T.{ts}): {stats.records:,} records, "
                      f"{stats.renegotiations} renegotiations, "
                      f"load std-dev {stats.load_stddev:.1%}")

        # -- step 3: analyze (range-reader -a)
        with PartitionedStore(carp_dir) as store:
            analysis = analyze_store(store, epoch=0)
            print(f"analysis: selectivity at keyspace probes: "
                  + ", ".join(f"{s:.1%}" for s in analysis.probe_selectivity[:5]))

        # -- step 4: a range query against CARP output
        epoch = len(timesteps) - 1  # the late, bimodal timestep
        lo, hi = 16.0, 64.0
        with PartitionedStore(carp_dir) as store:
            carp_res = store.query(epoch, lo, hi)
        print(f"CARP query [{lo}, {hi}] on epoch {epoch}: "
              f"{len(carp_res):,} matches, {carp_res.cost.ssts_read} SSTs, "
              f"{carp_res.cost.bytes_read:,} B")

        # -- step 5: compact to the fully sorted layout (artifact A4)
        sorted_dir = root / "plfs" / "particle.sorted"
        epoch_dir = compact_epoch(carp_dir, sorted_dir, epoch, sst_records=2048)
        print(f"compacted epoch {epoch} -> {epoch_dir.relative_to(root)}")

        # -- step 6: the same query against the sorted layout
        with PartitionedStore(epoch_dir) as store:
            sorted_res = store.query(epoch, lo, hi)
        same = np.array_equal(np.sort(carp_res.rids), np.sort(sorted_res.rids))
        print(f"sorted query: {len(sorted_res):,} matches "
              f"(identical result set: {same})")
        print(f"latency CARP {carp_res.cost.latency * 1e3:.2f} ms "
              f"(incl. merge) vs sorted {sorted_res.cost.latency * 1e3:.2f} ms")
    if not same:
        print("error: CARP and sorted layouts returned different records",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

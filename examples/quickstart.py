#!/usr/bin/env python3
"""Quickstart: partition a stream with CARP and run range queries.

Generates a small synthetic VPIC-like particle workload, streams it
through CARP (adaptive range partitioning + KoiDB storage), and then
answers range queries directly against the partitioned on-disk output —
no post-processing pass in between.

One ``Session`` owns the whole pipeline: the ingest run, the query
views, and the (optional) observability stack.

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import CarpOptions, QueryRequest, Session
from repro.query.reader import analyze_store
from repro.traces.vpic import VpicTraceSpec, generate_timestep

NRANKS = 16


def main() -> None:
    # 1. a synthetic scientific workload: 16 ranks x 10k particles,
    #    indexed by energy (skewed, heavy-tailed — see Fig. 1a)
    spec = VpicTraceSpec(nranks=NRANKS, particles_per_rank=10_000, seed=1, value_size=8)
    streams = generate_timestep(spec, ts_index=6)
    all_keys = np.concatenate([s.keys for s in streams])
    print(f"workload: {len(all_keys):,} records, "
          f"energies in [{all_keys.min():.3g}, {all_keys.max():.3g}], "
          f"median {np.median(all_keys):.3g}")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "carp_out"

        with Session(NRANKS, out, CarpOptions(value_size=8)) as session:
            # 2. stream the epoch through CARP — partitions are
            #    discovered and adapted at runtime, no user-provided
            #    ranges needed
            stats = session.ingest_epoch(epoch=0, streams=streams)
            print(f"ingested epoch 0: {stats.renegotiations} renegotiations, "
                  f"partition load std-dev {stats.load_stddev:.1%}, "
                  f"strays {stats.stray_fraction:.2%}")

            # 3. query the partitioned output directly
            lo, hi = 16.0, 64.0  # the paper's "energy band" use case
            result = session.query(QueryRequest(lo=lo, hi=hi, epoch=0))
            expect = int(np.count_nonzero((all_keys >= lo) & (all_keys <= hi)))
            print(f"query energy in [{lo}, {hi}]: {len(result):,} particles "
                  f"(brute force agrees: {len(result) == expect})")
            total = session.store().total_bytes(0)
            print(f"  read {result.cost.bytes_read:,} B in "
                  f"{result.cost.ssts_read} SSTs "
                  f"({result.cost.bytes_read / total:.1%} of data), "
                  f"modeled latency {result.cost.latency * 1e3:.2f} ms")

            # 4. range-reader's analyze mode, over the same open store
            analysis = analyze_store(session.store(), epoch=0)
            print(f"analysis: {analysis.ssts} SSTs, median point-selectivity "
                  f"{analysis.median_selectivity:.1%} "
                  f"(floor for {NRANKS} partitions is {1 / NRANKS:.1%})")


if __name__ == "__main__":
    main()

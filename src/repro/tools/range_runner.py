"""``carp-range-runner`` — replay a trace through CARP (artifact A3).

The paper's ``range-runner`` loads a VPIC trace and replays it to
simulate application I/O while the preloaded ``carp`` library indexes
it in-situ.  This CLI does the same against an ``eparticle``-format
trace directory (see :mod:`repro.traces.io`), writing KoiDB logs that
the other tools can compact and query.

Example::

    carp-range-runner -i /tmp/trace -o /tmp/carp-out -n 16 \
        --pivots 512 --renegs 6
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.traces import io as trace_io


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="carp-range-runner",
        description="Replay an eparticle trace through CARP's in-situ "
                    "range partitioner.",
    )
    p.add_argument("-i", "--input", required=True, type=Path,
                   help="trace directory (T.<ts>/eparticle.<rank> layout)")
    p.add_argument("-o", "--output", required=True, type=Path,
                   help="output directory for KoiDB logs")
    p.add_argument("-n", "--ranks", type=int, default=16,
                   help="number of CARP ranks (default: 16)")
    p.add_argument("--pivots", type=int, default=512,
                   help="pivot count per rank (default: 512)")
    p.add_argument("--renegs", type=int, default=6,
                   help="renegotiations per epoch (default: 6)")
    p.add_argument("--oob", type=int, default=512,
                   help="OOB buffer capacity (default: 512)")
    p.add_argument("--memtable", type=int, default=4096,
                   help="memtable capacity in records (default: 4096)")
    p.add_argument("--subpartitions", type=int, default=1,
                   help="KoiDB subpartitioning factor (default: 1)")
    p.add_argument("--no-stray-separation", action="store_true",
                   help="disable KoiDB repartitioning (stray SSTs)")
    p.add_argument("--value-size", type=int, default=8,
                   help="payload bytes per record (default: 8)")
    p.add_argument("--timesteps", type=int, nargs="*", default=None,
                   help="subset of trace timesteps to replay (default: all)")
    return p


def reshard(streams: list[RecordBatch], nranks: int) -> list[RecordBatch]:
    """Re-shard trace ranks onto ``nranks`` CARP ranks round-robin."""
    buckets: list[list[RecordBatch]] = [[] for _ in range(nranks)]
    for i, s in enumerate(streams):
        buckets[i % nranks].append(s)
    return [
        RecordBatch.concat(b) if b else RecordBatch.empty(streams[0].value_size)
        for b in buckets
    ]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        timesteps = trace_io.list_timesteps(args.input)
    except FileNotFoundError:
        timesteps = []
    if not timesteps:
        print(f"error: no timesteps under {args.input}", file=sys.stderr)
        return 2
    if args.timesteps:
        missing = set(args.timesteps) - set(timesteps)
        if missing:
            print(f"error: timesteps not in trace: {sorted(missing)}",
                  file=sys.stderr)
            return 2
        timesteps = sorted(args.timesteps)

    options = CarpOptions(
        pivot_count=args.pivots,
        renegotiations_per_epoch=args.renegs,
        oob_capacity=args.oob,
        memtable_records=args.memtable,
        subpartitions=args.subpartitions,
        separate_strays=not args.no_stray_separation,
        value_size=args.value_size,
    )
    with CarpRun(args.ranks, args.output, options) as run:
        for epoch, ts in enumerate(timesteps):
            streams = trace_io.read_timestep(
                args.input, ts, value_size=args.value_size,
                seq_offset=epoch * (1 << 24),
            )
            streams = reshard(streams, args.ranks)
            stats = run.ingest_epoch(epoch, streams)
            print(
                f"epoch {epoch} (T.{ts}): {stats.records} records, "
                f"{stats.renegotiations} renegotiations, "
                f"normalized load std-dev {stats.load_stddev:.4f}, "
                f"strays {stats.stray_fraction:.2%}"
            )
        manifest = run.write_run_manifest()
    print(f"partitioned output written to {args.output}")
    print(f"run manifest written to {manifest}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""``carp tracegen`` — materialize synthetic traces on disk.

Generates the synthetic VPIC or AMR traces (see :mod:`repro.traces`)
in the paper artifact's ``eparticle`` layout, so the CLI workflow runs
end-to-end without Python code:

    carp tracegen -o /tmp/trace --workload vpic --ranks 32 \
        --records 4000 --timesteps 200 2000 3800
    carp range-runner -i /tmp/trace -o /tmp/carp-out
"""

from __future__ import annotations

import argparse
import sys

from repro.tools import add_out_dir
from repro.traces import io as trace_io
from repro.traces.amr import AmrTraceSpec
from repro.traces.amr import generate_timestep as amr_timestep
from repro.traces.vpic import VpicTraceSpec
from repro.traces.vpic import generate_timestep as vpic_timestep


def add_arguments(p: argparse.ArgumentParser) -> None:
    add_out_dir(p, "trace output directory", required=True)
    p.add_argument("--workload", choices=("vpic", "amr"), default="vpic")
    p.add_argument("--ranks", type=int, default=32)
    p.add_argument("--records", type=int, default=4000,
                   help="records per rank per timestep (default: 4000)")
    p.add_argument("--timesteps", type=int, nargs="+", default=None,
                   help="timestep ids (default: the workload's schedule)")
    p.add_argument("--seed", type=int, default=42)


def run(args: argparse.Namespace) -> int:
    try:
        if args.workload == "vpic":
            kwargs = dict(nranks=args.ranks, particles_per_rank=args.records,
                          seed=args.seed)
            if args.timesteps:
                kwargs["timesteps"] = tuple(args.timesteps)
            spec = VpicTraceSpec(**kwargs)
            gen = vpic_timestep
        else:
            kwargs = dict(nranks=args.ranks, cells_per_rank=args.records,
                          seed=args.seed)
            if args.timesteps:
                kwargs["timesteps"] = tuple(args.timesteps)
            spec = AmrTraceSpec(**kwargs)
            gen = amr_timestep
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for i, ts in enumerate(spec.timesteps):
        trace_io.write_timestep(args.out, ts, gen(spec, i))
        print(f"wrote T.{ts}: {spec.nranks} ranks x {args.records} records")
    print(f"trace written to {args.out}")
    return 0

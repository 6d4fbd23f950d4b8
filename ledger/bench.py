"""Run one workload in this process and report it.

``python -m ledger bench --workload W --seed N --seconds S --trace 0|1``
is the command ``BENCHMARK.json`` names: the last line of its standard
output is the driver's JSON object.  ``run`` / ``trace`` / ``aa`` start
one such process per workload and read the fuller ``--detail`` file.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any

from ledger import env, spec
from ledger.spec import Scale


def _cpu_jiffies() -> tuple[int, int]:
    """(all, stolen) CPU time of the machine so far; (0, 0) where /proc has none."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().splitlines()[0].split()[1:9]]
    except (OSError, ValueError, IndexError):
        return 0, 0
    return sum(fields), fields[7]


def run_workload(
    name: str, seed: int, scale: Scale, trace: bool, scrubbed: list[str]
) -> dict[str, Any]:
    """Set up, measure, verify and tear down ``name``; returns the detail document."""
    # imported here: everything below needs ``repro`` on the path first
    from ledger.layers import layer_metrics
    from ledger.trace import Tracer
    from ledger.workloads import WORKLOADS, Stat

    started = time.perf_counter()
    jiffies0 = _cpu_jiffies()
    env.OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=env.OUT_DIR))
    try:
        workload = WORKLOADS[name](seed, scale, scratch)
        setup_s: list[float] = []
        for i in range(scale.setups):
            if i:
                workload.teardown()
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        layers: dict[str, float] = {}
        trace_files: list[str] = []
        try:
            if trace:
                quarter = scale.traced()
                untraced = workload.measure(quarter)
                workload.verify(untraced)
                tracer = Tracer()
                with tracer:
                    m = workload.measure(quarter, tracer)
                workload.verify(m)
                folded = tracer.fold()
                layers = layer_metrics(workload, folded, untraced, m)
                trace_files = [str(p.relative_to(env.REPO_ROOT))
                               for p in folded.write(env.OUT_DIR, name)]
                # end-to-end numbers never come from a measurement with wrappers on
                untraced.attempted += m.attempted
                untraced.failed += m.failed
                untraced.failures = (untraced.failures + m.failures)[:10]
                m = untraced
            else:
                m = workload.measure(scale)
                workload.verify(m)
        finally:
            workload.teardown()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    jiffies1 = _cpu_jiffies()
    busy = jiffies1[0] - jiffies0[0]
    common = {
        "setup_s": Stat(statistics.median(setup_s), len(setup_s)),
        # ru_maxrss is KiB on Linux
        "peak_rss_mb": Stat(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "failed_share": Stat(m.failed / m.attempted if m.attempted else 1.0, m.attempted),
    }
    native = {**common, **m.native}
    complete = sorted(native) == sorted(x.name for x in spec.metrics_of(name))
    driver = {
        "setup_s": common["setup_s"].value,
        "peak_rss_mb": common["peak_rss_mb"].value,
        **m.driver,
    }
    return {
        "workload": name,
        "traced": trace,
        "fingerprint": env.fingerprint(seed, scale.name, scrubbed),
        "correct": bool(m.failed == 0 and m.attempted > 0 and complete),
        "attempted": m.attempted,
        "failed": m.failed,
        "failures": m.failures,
        "wall_s": time.perf_counter() - started,
        # share of the machine's CPU time the hypervisor gave to others during
        # the run: not a metric, but the first thing to read when a timing jumps
        "cpu_steal_share": (jiffies1[1] - jiffies0[1]) / busy if busy else 0.0,
        "metrics": {
            k: {"value": v.value, "samples": v.samples} for k, v in native.items()
        },
        "driver_metrics": driver,
        "layers": layers,
        "trace_files": trace_files,
    }


def driver_line(detail: dict[str, Any]) -> str:
    """The one JSON object the BENCHMARK.json contract asks for."""
    if detail["traced"]:
        units = dict(spec.PER_LAYER)
        values = detail["layers"]
    else:
        units = {m.name: m.unit for m in spec.DRIVER_METRICS}
        values = detail["driver_metrics"]
    return json.dumps({
        "correct": detail["correct"] and sorted(values) == sorted(units),
        "attempted": max(1, detail["attempted"]),
        "failed": detail["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    })

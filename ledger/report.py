"""Result files and the metric table ``run`` prints."""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

from ledger import env, spec


def run_in_process(workload: str, seed: int, scale: str, seconds: float, trace: bool) -> dict[str, Any]:
    """Run one workload in a process of its own; returns its detail document."""
    with tempfile.TemporaryDirectory(prefix="detail-") as tmp:
        detail = Path(tmp) / "detail.json"
        cmd = [
            sys.executable, "-m", "ledger", "bench", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--scale", scale, "--detail", str(detail),
        ]
        done = subprocess.run(cmd, cwd=env.REPO_ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0 or not detail.is_file():
            raise RuntimeError(
                f"workload {workload} exited {done.returncode}:\n{done.stdout}\n{done.stderr}"
            )
        return json.loads(detail.read_text())


def result_set(details: list[dict[str, Any]]) -> dict[str, Any]:
    """One set: every requested workload run once."""
    return {
        "fingerprint": details[0]["fingerprint"] if details else {},
        "workloads": {d["workload"]: d for d in details},
    }


def table(details: list[dict[str, Any]]) -> str:
    """Every metric by name: value, unit, sample count, workload."""
    rows = [("metric", "value", "unit", "samples", "workload")]
    units = {m.name: m.unit for m in spec.END_TO_END}
    driver_units = {m.name: m.unit for m in spec.DRIVER_METRICS}
    layer_units = dict(spec.PER_LAYER)
    for d in details:
        for name, stat in d["metrics"].items():
            rows.append((name, f"{stat['value']:.6g}", units[name], str(stat["samples"]), d["workload"]))
        if d["traced"]:
            for name, value in d["layers"].items():
                rows.append((name, f"{value:.6g}", layer_units[name], "-", d["workload"]))
        else:
            for name, value in d["driver_metrics"].items():
                rows.append((f"driver:{name}", f"{value:.6g}", driver_units[name], "-", d["workload"]))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    for d in details:
        verdict = "correct" if d["correct"] else "WRONG: " + "; ".join(d["failures"][:3])
        lines.append(
            f"{d['workload']}: {d['attempted']} operations, {d['failed']} failed, "
            f"{verdict}, {d['wall_s']:.1f} s wall, {d['cpu_steal_share'] * 100:.1f}% CPU stolen"
        )
    return "\n".join(lines)

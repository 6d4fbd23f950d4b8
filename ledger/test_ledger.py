"""The harness's own tests: ``python -m pytest ledger -q`` (smoke scale).

Not part of tier-1 (``testpaths = ["tests"]``): they test the benchmark,
not the program.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from ledger import compare, env, spec

env.prepare()  # puts src/ on the path; everything below imports repro

from repro.query.request import STATUS_OK, QueryRequest, QueryResponse  # noqa: E402

from ledger import trace as trace_mod  # noqa: E402
from ledger.bench import driver_line, run_workload  # noqa: E402
from ledger.loadgen import Load, Oracle  # noqa: E402
from ledger.trace import COUNTERS, SPANS, Tracer, _resolve  # noqa: E402

BENCHMARK = json.loads((env.REPO_ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_runs() -> dict[tuple[str, bool], dict]:
    return {
        (name, traced): run_workload(name, 7, spec.SMOKE, traced, [])
        for name in spec.WORKLOADS
        for traced in (False, True)
    }


def _patch_sites() -> list[tuple[object, str, object]]:
    sites = []
    for module, path, *_ in (*SPANS, *COUNTERS):
        owner, attr, original = _resolve(module, path)
        sites.append((owner, attr, original))
    return sites


# ------------------------------------------------------------- declarations


def test_benchmark_json_matches_spec() -> None:
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["ledger"]
    assert BENCHMARK["run_seconds"] == spec.RUN_SECONDS
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == spec.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in spec.DRIVER_METRICS]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(spec.PER_LAYER)
    assert {m["name"] for m in BENCHMARK["per_layer"] if m["better"] == "higher"} == (
        spec.LAYERS_HIGHER_IS_BETTER)
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in BENCHMARK["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_sixteen_end_to_end_metrics_each_owned_by_a_workload() -> None:
    assert len(spec.END_TO_END) == 16
    assert len({m.name for m in spec.END_TO_END}) == 16
    for metric in spec.END_TO_END:
        assert metric.workloads and set(metric.workloads) <= set(spec.WORKLOADS)


def test_smoke_run_reports_declared_metrics_only(smoke_runs: dict) -> None:
    for name in spec.WORKLOADS:
        detail = smoke_runs[name, False]
        assert detail["correct"], detail["failures"]
        assert detail["failed"] == 0 and detail["attempted"] > 0
        assert detail["fingerprint"]["scale"] == "smoke"
        assert sorted(detail["metrics"]) == sorted(m.name for m in spec.metrics_of(name))
        assert detail["metrics"]["failed_share"]["value"] == 0.0
        line = json.loads(driver_line(detail))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert sorted(line["metrics"]) == sorted(m.name for m in spec.DRIVER_METRICS)
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_run_reports_every_layer_metric(smoke_runs: dict) -> None:
    for name in spec.WORKLOADS:
        detail = smoke_runs[name, True]
        assert detail["correct"], detail["failures"]
        line = json.loads(driver_line(detail))
        assert list(line["metrics"]) == [n for n, _u in spec.PER_LAYER]
        assert line["metrics"]["trace_overhead_x"]["value"] > 0
        for path in detail["trace_files"]:
            assert (env.REPO_ROOT / path).is_file()
    # the prediction the idle layers carry: no read path on ingest-1m, no
    # write path inside query-sweep's window
    ingest = smoke_runs["ingest-1m", True]["layers"]
    sweep = smoke_runs["query-sweep", True]["layers"]
    assert ingest["storage.sst_read_ms"] == 0 and ingest["query.opens"] == 0
    assert ingest["storage.koidb_ingest_self_ms"] > 0 and ingest["core.reneg_count"] > 0
    assert sweep["api.ingest_epoch_ms"] == 0 and sweep["storage.sst_read_ms"] > 0
    assert smoke_runs["serve-live", True]["layers"]["query.invalidations"] > 0


def test_result_carries_the_fingerprint(smoke_runs: dict) -> None:
    fp = smoke_runs["ingest-1m", False]["fingerprint"]
    assert {"git_sha", "nproc", "cpu_model", "python", "numpy", "seed", "scale",
            "kernels", "executor", "scrubbed_env"} <= set(fp)
    assert fp["executor"] == "SerialExecutor" and fp["seed"] == 7
    assert fp["scrubbed_env"] == list(env.SCRUBBED_VARS)


def test_scratch_is_removed(smoke_runs: dict) -> None:
    assert not list(env.OUT_DIR.glob("scratch-*"))


# ------------------------------------------------------------------ oracle


@pytest.fixture(scope="module")
def load() -> Load:
    return Load(3, spec.SMOKE)


def _response(request: QueryRequest, keys: np.ndarray, rids: np.ndarray) -> QueryResponse:
    return QueryResponse(
        request=request, request_id="query-000001", status=STATUS_OK, epoch=0,
        snapshot_token="live", keys=keys.astype(np.float32), rids=rids,
    )


def test_oracle_accepts_the_true_answer_and_flags_wrong_ones(load: Load) -> None:
    oracle = load.oracle
    all_keys = oracle.keys[0]
    # hi sits one float64 step below a stored key k: float64 excludes k,
    # a float32 comparison (hi rounds to k) would include it
    k_idx = len(all_keys) // 2
    while all_keys[k_idx] == all_keys[k_idx - 1]:
        k_idx += 1
    k = all_keys[k_idx]
    hi = float(np.nextafter(k, -np.inf))
    assert np.float32(hi) == np.float32(k)
    lo = float(all_keys[k_idx - 200])
    request = QueryRequest(lo=lo, hi=hi, epoch=0)
    i0, i1 = oracle.span(0, lo, hi)
    assert i1 == k_idx and i1 - i0 >= 200
    keys, rids = all_keys[i0:i1], oracle._rids[0][i0:i1]

    good = _response(request, keys, rids)
    assert oracle.check_response(good) is None
    assert oracle.check_digest(Oracle.digest(good)) is None

    dropped = _response(request, np.delete(keys, 17), np.delete(rids, 17))
    assert "oracle counts" in oracle.check_response(dropped)
    assert oracle.check_digest(Oracle.digest(dropped)) is not None

    boundary = _response(
        request, np.append(keys, k), np.append(rids, oracle._rids[0][k_idx])
    )
    assert "oracle counts" in oracle.check_response(boundary)
    assert oracle.check_digest(Oracle.digest(boundary)) is not None

    swapped = keys.copy()
    swapped[5] = swapped[6]  # same count, wrong sequence
    assert oracle.check_response(_response(request, swapped, rids)) is not None
    assert oracle.check_digest(Oracle.digest(_response(request, swapped, rids))) is not None

    wrong_rid = rids.copy()
    wrong_rid[0] += np.uint64(1)
    assert "rid" in oracle.check_response(_response(request, keys, wrong_rid))

    refused = QueryResponse(request=request, request_id="q", status="rejected",
                            epoch=-1, snapshot_token="t")
    assert "rejected" in oracle.check_response(refused)
    assert oracle.check_digest(Oracle.digest(refused)) is not None


def test_scan_check_is_a_multiset_comparison(load: Load) -> None:
    oracle = load.oracle
    keys32 = oracle.keys[0].astype(np.float32)
    rids = oracle._rids[0]
    shuffled = np.random.default_rng(0).permutation(len(rids))
    assert oracle.check_scan(0, keys32[shuffled], rids[shuffled]) is None
    assert oracle.check_scan(0, keys32[1:], rids[1:]) is not None
    bad = rids.copy()
    bad[3] += np.uint64(1)
    assert oracle.check_scan(0, keys32, bad) is not None


def test_same_seed_same_inputs(load: Load) -> None:
    again = Load(3, spec.SMOKE)
    assert all(np.array_equal(a, b) for a, b in zip(load.oracle.keys, again.oracle.keys))
    anchors = Load.anchors(12, load.rng(1))
    assert np.array_equal(anchors, Load.anchors(12, again.rng(1)))
    assert 0.02 <= anchors.min() and anchors.max() <= 0.98
    assert load.request(0, 0.01, 0.5, 0) == again.request(0, 0.01, 0.5, 0)
    other = Load(4, spec.SMOKE)
    assert not np.array_equal(load.oracle.keys[0], other.oracle.keys[0])


# ------------------------------------------------------------------ tracer


def test_wrappers_are_removed_after_a_traced_run(smoke_runs: dict) -> None:
    # smoke_runs has installed and removed the wrappers four times by now
    for owner, attr, original in _patch_sites():
        assert vars(owner)[attr] is original
        assert not hasattr(original, "__wrapped__"), f"{owner}.{attr} is still a wrapper"
    import repro.core.carp as carp
    import repro.shuffle.router as router

    assert carp.range_route is router.range_route


def test_install_swaps_by_value_imports_and_uninstall_restores_them() -> None:
    import repro.core.carp as carp
    import repro.shuffle.router as router

    before = {(id(o), a): vars(o)[a] for o, a, _ in _patch_sites()}
    original = router.range_route
    tracer = Tracer()
    with tracer:
        assert router.range_route is not original
        assert carp.range_route is router.range_route  # the consumer's copy too
        assert router.range_route.__wrapped__ is original
        with pytest.raises(RuntimeError):
            tracer.install()
    assert carp.range_route is original and router.range_route is original
    assert all(vars(o)[a] is before[id(o), a] for o, a, _ in _patch_sites())


def test_self_times_sum_to_the_root_span(smoke_runs: dict) -> None:
    for name in spec.WORKLOADS:
        doc = json.loads((env.OUT_DIR / f"trace_{name}.json").read_text())
        spans = doc["spans"]
        assert spans, name
        self_ns = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                self_ns[s[3]] -= s[2] - s[1]
                parent = spans[s[3]]
                assert parent[1] <= s[1] and s[2] <= parent[2] and parent[5] == s[5]
        assert min(self_ns) >= 0
        subtree = list(self_ns)
        for i in range(len(spans) - 1, -1, -1):
            if spans[i][3] >= 0:
                subtree[spans[i][3]] += subtree[i]
        roots = [i for i, s in enumerate(spans) if s[3] < 0]
        for i in roots:
            assert subtree[i] == pytest.approx(spans[i][2] - spans[i][1], rel=0.01)
        folded = (env.OUT_DIR / f"trace_{name}.folded").read_text().splitlines()
        assert sum(int(line.rsplit(" ", 1)[1]) for line in folded) == sum(self_ns)
        assert smoke_runs[name, True]["layers"]["trace_coverage"] >= 0.99


def test_span_table_names_public_callables_only() -> None:
    for module, path, *_ in (*SPANS, *COUNTERS):
        # dunders are how construction is spelled; no other private name is wrapped
        assert not any(p.startswith("_") and not p.startswith("__") for p in path.split("."))
        assert module.startswith("repro.") and module in sys.modules
    assert trace_mod.NULL_TRACER.tag("x") is None


# ----------------------------------------------------------------- compare


def _file(**values: list[float]) -> dict:
    return {"sets": [
        {"workloads": {"ingest-1m": {"metrics": {k: {"value": v[i]} for k, v in values.items()}}}}
        for i in range(len(next(iter(values.values()))))
    ]}


def _verdicts(a: dict, b: dict, **kw: bool) -> dict[str, str]:
    return {r["metric"]: r["verdict"] for r in compare.compare(a, b, **kw)}


def test_compare_verdicts() -> None:
    base = _file(ingest_krec_s=[1000.0, 1010.0], write_amp=[1.0007, 1.0007], failed_share=[0.0, 0.0])
    same = _file(ingest_krec_s=[1005.0], write_amp=[1.0007], failed_share=[0.0])
    assert set(_verdicts(base, same).values()) == {"ok"}
    slower = _file(ingest_krec_s=[900.0], write_amp=[1.0007], failed_share=[0.001])
    assert _verdicts(base, slower) == {
        "ingest_krec_s": "regressed", "write_amp": "ok", "failed_share": "regressed"}
    # a baseline noisier than the bound cannot vouch for "unchanged" ...
    noisy = _file(ingest_krec_s=[1000.0, 1200.0], write_amp=[1.0007, 1.0007], failed_share=[0.0, 0.0])
    assert _verdicts(noisy, _file(ingest_krec_s=[1100.0], write_amp=[1.0007], failed_share=[0.0]))[
        "ingest_krec_s"] == "unresolved"
    # ... unless every change value beats every baseline value
    assert _verdicts(noisy, _file(ingest_krec_s=[1300.0], write_amp=[1.0007], failed_share=[0.0]))[
        "ingest_krec_s"] == "ok"
    # A/A: whatever differs is spread; an exact metric must repeat bit for bit
    assert _verdicts(base, base, same_commit=True)["ingest_krec_s"] == "ok"
    assert _verdicts(noisy, noisy, same_commit=True)["ingest_krec_s"] == "unresolved"
    drift = _file(ingest_krec_s=[1000.0, 1000.0], write_amp=[1.0007, 1.0008], failed_share=[0.0, 0.0])
    assert _verdicts(drift, drift, same_commit=True)["write_amp"] == "unresolved"


def test_scale_for_seconds_is_linear_and_deterministic() -> None:
    assert spec.FULL.for_seconds(spec.RUN_SECONDS) == spec.FULL
    half = spec.FULL.for_seconds(spec.RUN_SECONDS / 2)
    assert half.ingest_reps == round(spec.FULL.ingest_reps / 2)
    assert half.sweep_anchors == spec.FULL.sweep_anchors  # inputs stay, repetitions scale
    assert spec.FULL.traced().setups == 1
    assert spec.FULL.traced().ingest_reps == -(-spec.FULL.ingest_reps // 4)

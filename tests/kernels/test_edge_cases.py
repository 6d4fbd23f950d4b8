"""Kernel edge cases against the golden corpus, on both backends.

``corpus/cases.json`` pins the exact outputs of every kernel slot on
the inputs most likely to diverge between scalar and vector: empty
arrays, single records, NaN/±inf/±0.0/subnormal float32 bit patterns,
keys exactly on pivot boundaries, and float32→float64 widening traps.
Every case is asserted against *both* backends, and a builder test
proves the checked-in JSON is exactly what ``corpus/generate.py``
produces.  Live ingest edges (empty epochs, single-record batches)
and query ranges straddling SST boundaries are covered end to end.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.partition import OOB_DEST as PARTITION_OOB
from repro.core.records import RecordBatch
from repro.kernels import OOB_DEST
from repro.query.engine import PartitionedStore
from repro.storage.log import LogReader, list_logs

from tests.kernels.scalar import BACKENDS, use_backend

CORPUS_DIR = Path(__file__).parent / "corpus"
CASES = json.loads((CORPUS_DIR / "cases.json").read_text())


def _keys(hex_bits: list[str]) -> np.ndarray:
    bits = np.array([int(h, 16) for h in hex_bits], dtype="<u4")
    return bits.view("<f4")


def _by_name(section: str) -> list:
    return [pytest.param(case, id=case["name"]) for case in CASES[section]]


def test_oob_sentinel_consistent():
    # repro.kernels.api redeclares OOB_DEST (importing the partition
    # module would be a cycle); the two must never drift
    assert OOB_DEST == PARTITION_OOB


@pytest.mark.parametrize("kernels_name", BACKENDS)
@pytest.mark.parametrize("case", _by_name("route"))
def test_route_golden(case, kernels_name):
    kernels = BACKENDS[kernels_name]
    dests = kernels.route(
        np.asarray(case["bounds"], dtype=np.float64), _keys(case["keys_hex"])
    )
    assert dests.dtype == np.int64
    assert list(dests) == case["dests"]


@pytest.mark.parametrize("kernels_name", BACKENDS)
@pytest.mark.parametrize("case", _by_name("range_mask"))
def test_range_mask_golden(case, kernels_name):
    kernels = BACKENDS[kernels_name]
    mask = kernels.range_mask(_keys(case["keys_hex"]), case["lo"], case["hi"])
    assert mask.dtype == np.bool_
    assert [bool(m) for m in mask] == case["mask"]


@pytest.mark.parametrize("kernels_name", BACKENDS)
@pytest.mark.parametrize("case", _by_name("interval_mask"))
def test_interval_mask_golden(case, kernels_name):
    kernels = BACKENDS[kernels_name]
    mask = kernels.interval_mask(
        _keys(case["keys_hex"]), case["lo"], case["hi"], case["inclusive_hi"]
    )
    assert [bool(m) for m in mask] == case["mask"]


@pytest.mark.parametrize("kernels_name", BACKENDS)
@pytest.mark.parametrize("case", _by_name("group_runs"))
def test_group_runs_golden(case, kernels_name):
    kernels = BACKENDS[kernels_name]
    groups = kernels.group_runs(np.asarray(case["dests"], dtype=np.int64))
    assert [
        [int(d), [int(i) for i in idx]] for d, idx in groups
    ] == case["groups"]


@pytest.mark.parametrize("kernels_name", BACKENDS)
@pytest.mark.parametrize("case", _by_name("key_codec"))
def test_key_codec_golden(case, kernels_name):
    kernels = BACKENDS[kernels_name]
    keys = _keys(case["keys_hex"])
    payload = kernels.encode_keys(keys)
    assert payload.hex() == case["payload_hex"]
    # bit-exact round trip — NaN payload and sign bits survive — from
    # every buffer type the mmap reader may hand in
    for buf in (payload, bytearray(payload), memoryview(payload)):
        decoded = kernels.decode_keys(buf)
        assert decoded.view("<u4").tolist() == keys.view("<u4").tolist()


@pytest.mark.parametrize("kernels_name", BACKENDS)
@pytest.mark.parametrize("case", _by_name("value_codec"))
def test_value_codec_golden(case, kernels_name):
    kernels = BACKENDS[kernels_name]
    rids = np.asarray(case["rids"], dtype="<u8")
    value_size = case["value_size"]
    payload = kernels.encode_values(rids, value_size)
    assert payload.hex() == case["payload_hex"]
    decoded = kernels.decode_values(memoryview(payload), value_size)
    assert decoded.tolist() == rids.tolist()
    assert kernels.filler_matches(payload, rids, value_size)
    if value_size > 8 and len(rids):
        # a single flipped filler byte must be caught
        tampered = bytearray(payload)
        tampered[-1] ^= 0x01
        assert not kernels.filler_matches(bytes(tampered), rids, value_size)


def test_corpus_matches_generator():
    """The checked-in cases.json is exactly what generate.py produces."""
    # loaded under a unique module name: tests/storage/corpus has its
    # own generate.py and both suites may run in one process
    spec = importlib.util.spec_from_file_location(
        "tests.kernels.corpus.generate", CORPUS_DIR / "generate.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rebuilt = json.dumps(module.build_cases(), indent=1, sort_keys=True) + "\n"
    assert (CORPUS_DIR / "cases.json").read_text() == rebuilt


# ------------------------------------------------------- live ingest edges

OPTIONS = CarpOptions(
    pivot_count=16,
    oob_capacity=32,
    renegotiations_per_epoch=2,
    memtable_records=64,
    round_records=32,
    value_size=8,
)

NRANKS = 2


def _stream(keys: np.ndarray, rank: int) -> RecordBatch:
    rids = (np.arange(len(keys), dtype="<u8")
            + np.uint64(rank) * np.uint64(1 << 32))
    return RecordBatch(np.asarray(keys, "<f4"), rids, OPTIONS.value_size)


def _edge_epochs() -> list[list[RecordBatch]]:
    """Per-epoch streams: a dense epoch, an epoch with one empty rank
    stream, and an epoch of single-record batches."""
    dense = [
        _stream(np.linspace(0.0, 100.0, 300, dtype="<f4"), 0),
        _stream(np.linspace(2.0, 98.0, 300, dtype="<f4"), 1),
    ]
    one_empty = [
        RecordBatch.empty(OPTIONS.value_size),
        _stream(np.array([12.5, 87.5], "<f4"), 1),
    ]
    single = [
        _stream(np.array([31.25], "<f4"), 0),
        _stream(np.array([68.75], "<f4"), 1),
    ]
    return [dense, one_empty, single]


def _ingest_edges(out_dir) -> dict[str, bytes]:
    with CarpRun(NRANKS, out_dir, OPTIONS) as run:
        for epoch, streams in enumerate(_edge_epochs()):
            run.ingest_epoch(epoch, streams)
    return {p.name: p.read_bytes() for p in list_logs(out_dir)}


def test_empty_and_single_record_epochs_bit_identical(tmp_path):
    logs = {}
    for kernels_name in BACKENDS:
        with use_backend(kernels_name):
            logs[kernels_name] = _ingest_edges(tmp_path / kernels_name)
    assert logs["vector"] == logs["scalar"]
    assert logs["vector"], "edge ingest produced no logs"


def test_fully_empty_epoch_rejected_on_both_backends(tmp_path):
    empty = [RecordBatch.empty(OPTIONS.value_size) for _ in range(NRANKS)]
    for kernels_name in BACKENDS:
        with use_backend(kernels_name):
            with CarpRun(NRANKS, tmp_path / kernels_name, OPTIONS) as run:
                with pytest.raises(ValueError, match="empty epoch"):
                    run.ingest_epoch(0, empty)


def test_query_straddling_sst_boundaries(tmp_path):
    """A range crossing an SST edge filters identically on both backends.

    The dense epoch flushes several SSTs per rank (memtable_records is
    tiny); the query range is derived from an actual adjacent-SST key
    boundary on disk, so the filter has to split records *within* both
    neighbouring blocks.
    """
    out_dir = tmp_path / "db"
    _ingest_edges(out_dir)
    # find a real SST boundary: consecutive epoch-0 entries in one log
    log_path = list_logs(out_dir)[0]
    with LogReader(log_path) as reader:
        entries = [e for e in reader.entries_for(epoch=0) if e.count]
        assert len(entries) >= 2, "edge ingest must flush multiple SSTs"
        first = reader.read_sst(entries[0]).batch
        second = reader.read_sst(entries[1]).batch
    lo = float(first.keys[len(first) // 2])
    hi = float(second.keys[len(second) // 2])
    if hi < lo:
        lo, hi = hi, lo
    assert lo < hi
    expected = None
    for kernels_name in BACKENDS:
        with use_backend(kernels_name):
            with PartitionedStore(out_dir) as store:
                result = store.query(0, lo, hi)
        got = (
            result.keys.view("<u4").tolist(),
            result.rids.tolist(),
        )
        # independent reference: re-filter the generated input in f64
        all_keys = np.concatenate([b.keys for b in _edge_epochs()[0]])
        n_match = int(
            ((all_keys.astype(np.float64) >= lo)
             & (all_keys.astype(np.float64) <= hi)).sum()
        )
        assert len(result.keys) == n_match, kernels_name
        assert n_match > 0, "straddling range matched nothing"
        if expected is None:
            expected = got
        else:
            assert got == expected

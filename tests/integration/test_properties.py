"""Property-based integration tests over the whole pipeline."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch, make_rids, range_mask
from repro.query.engine import PartitionedStore
from repro.storage.log import LogReader, list_logs

FAST = CarpOptions(
    pivot_count=16, oob_capacity=16, renegotiations_per_epoch=2,
    memtable_records=64, round_records=64, value_size=8,
)


@st.composite
def rank_streams(draw):
    """1-4 ranks, each with 1-120 finite float32 keys of any scale."""
    nranks = draw(st.integers(1, 4))
    streams = []
    for r in range(nranks):
        keys = draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, width=32),
                min_size=1, max_size=120,
            )
        )
        arr = np.array(keys, dtype=np.float32)
        streams.append(RecordBatch(arr, make_rids(r, 0, len(arr)), 8))
    return streams


class TestCarpConservation:
    @given(streams=rank_streams(), delay=st.integers(0, 2))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_record_stored_exactly_once(self, tmp_path_factory, streams,
                                              delay):
        """The fundamental invariant: CARP is a permutation of its
        input — no record lost, duplicated, or altered — for any key
        distribution, rank count, and fabric delay."""
        tmp = tmp_path_factory.mktemp("prop")
        opts = FAST.with_(shuffle_delay_rounds=delay)
        with CarpRun(len(streams), tmp, opts) as run:
            run.ingest_epoch(0, streams)
        stored: dict[int, float] = {}
        for path in list_logs(tmp):
            with LogReader(path) as reader:
                for entry in reader.entries:
                    batch = reader.read_sst(entry).batch
                    for rid, key in zip(batch.rids.tolist(),
                                        batch.keys.tolist()):
                        assert rid not in stored, "duplicate record"
                        stored[rid] = key
        expect = {}
        for s in streams:
            expect.update(zip(s.rids.tolist(), s.keys.tolist()))
        assert stored == expect

    @given(streams=rank_streams(),
           bounds=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_query_matches_brute_force(self, tmp_path_factory, streams,
                                           bounds):
        tmp = tmp_path_factory.mktemp("propq")
        with CarpRun(len(streams), tmp, FAST) as run:
            run.ingest_epoch(0, streams)
        lo, hi = sorted(bounds)
        all_keys = np.concatenate([s.keys for s in streams])
        all_rids = np.concatenate([s.rids for s in streams])
        with PartitionedStore(tmp) as store:
            res = store.query(0, lo, hi)
        expect = set(all_rids[range_mask(all_keys, lo, hi)].tolist())
        assert set(res.rids.tolist()) == expect
        assert np.all(np.diff(res.keys) >= 0)


class TestManifestConsistency:
    @given(streams=rank_streams())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_manifest_ranges_cover_contents(self, tmp_path_factory, streams):
        """Every SST's manifest [kmin, kmax] exactly brackets its keys —
        the property all query pruning relies on."""
        tmp = tmp_path_factory.mktemp("propm")
        with CarpRun(len(streams), tmp, FAST) as run:
            run.ingest_epoch(0, streams)
        for path in list_logs(tmp):
            with LogReader(path) as reader:
                for entry in reader.entries:
                    batch = reader.read_sst(entry).batch
                    assert float(batch.keys.min()) == entry.kmin
                    assert float(batch.keys.max()) == entry.kmax
                    assert len(batch) == entry.count


class TestCompactorProperty:
    @given(streams=rank_streams())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_compaction_is_sorted_permutation(self, tmp_path_factory, streams):
        from repro.storage.compactor import compact_epoch, read_epoch

        tmp = tmp_path_factory.mktemp("propc")
        with CarpRun(len(streams), tmp / "carp", FAST) as run:
            run.ingest_epoch(0, streams)
        out = compact_epoch(tmp / "carp", tmp / "sorted", 0, sst_records=32)
        merged = read_epoch(out, 0)
        expect_rids = sorted(
            np.concatenate([s.rids for s in streams]).tolist()
        )
        assert sorted(merged.rids.tolist()) == expect_rids
        # globally sorted across SST boundaries
        with LogReader(list_logs(out)[0]) as reader:
            prev = -np.inf
            for entry in sorted(reader.entries, key=lambda e: e.offset):
                assert entry.kmin >= prev
                prev = entry.kmax

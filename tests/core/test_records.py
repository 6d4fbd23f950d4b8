"""Unit tests for record batches and rid encoding."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.records import (
    KEY_DTYPE,
    PAPER_RECORD_SIZE,
    PAPER_VALUE_SIZE,
    RID_SEQ_BITS,
    RecordBatch,
    make_rids,
    rid_rank,
    rid_seq,
)


class TestMakeRids:
    def test_basic_sequence(self):
        rids = make_rids(rank=0, start_seq=0, count=5)
        assert rids.tolist() == [0, 1, 2, 3, 4]

    def test_rank_encoded_in_high_bits(self):
        rids = make_rids(rank=3, start_seq=0, count=2)
        assert rids[0] == 3 << RID_SEQ_BITS

    def test_start_seq_offset(self):
        rids = make_rids(rank=1, start_seq=100, count=3)
        assert rid_seq(rids).tolist() == [100, 101, 102]

    def test_roundtrip_rank_and_seq(self):
        rids = make_rids(rank=7, start_seq=42, count=10)
        assert np.all(rid_rank(rids) == 7)
        assert rid_seq(rids).tolist() == list(range(42, 52))

    def test_unique_across_ranks(self):
        a = make_rids(0, 0, 100)
        b = make_rids(1, 0, 100)
        assert len(np.intersect1d(a, b)) == 0

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            make_rids(-1, 0, 1)

    def test_seq_overflow_rejected(self):
        with pytest.raises(ValueError):
            make_rids(0, (1 << RID_SEQ_BITS) - 1, 2)

    @given(rank=st.integers(0, 1000), seq=st.integers(0, 2**30),
           count=st.integers(0, 50))
    def test_roundtrip_property(self, rank, seq, count):
        rids = make_rids(rank, seq, count)
        assert np.all(rid_rank(rids) == rank)
        assert np.array_equal(rid_seq(rids), np.arange(seq, seq + count))


class TestRecordBatch:
    def test_paper_geometry(self):
        assert PAPER_RECORD_SIZE == 60
        batch = RecordBatch.from_keys(np.array([1.0, 2.0], dtype=np.float32))
        assert batch.record_size == 60
        assert batch.nbytes == 120

    def test_len(self):
        batch = RecordBatch.from_keys(np.arange(7, dtype=np.float32))
        assert len(batch) == 7

    def test_keys_cast_to_float32(self):
        batch = RecordBatch(np.array([1.5, 2.5]), make_rids(0, 0, 2))
        assert batch.keys.dtype == KEY_DTYPE

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            RecordBatch(np.zeros(3, np.float32), make_rids(0, 0, 2))

    def test_nan_keys_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            RecordBatch(np.array([1.0, np.nan], np.float32), make_rids(0, 0, 2))

    def test_inf_keys_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            RecordBatch(np.array([np.inf], np.float32), make_rids(0, 0, 1))

    def test_2d_keys_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            RecordBatch(np.zeros((2, 2), np.float32), make_rids(0, 0, 4))

    def test_value_size_must_hold_rid(self):
        with pytest.raises(ValueError, match="value_size"):
            RecordBatch.from_keys(np.zeros(1, np.float32), value_size=4)

    def test_select_by_mask(self):
        batch = RecordBatch.from_keys(np.array([1, 2, 3, 4], np.float32))
        sub = batch.select(batch.keys > 2)
        assert sub.keys.tolist() == [3, 4]
        assert len(sub.rids) == 2

    def test_select_by_index(self):
        batch = RecordBatch.from_keys(np.array([5, 6, 7], np.float32))
        sub = batch.select(np.array([2, 0]))
        assert sub.keys.tolist() == [7, 5]

    def test_select_preserves_value_size(self):
        batch = RecordBatch.from_keys(np.zeros(3, np.float32), value_size=16)
        assert batch.select(np.array([0])).value_size == 16

    def test_sorted_by_key(self):
        batch = RecordBatch.from_keys(np.array([3, 1, 2], np.float32))
        s = batch.sorted_by_key()
        assert s.keys.tolist() == [1, 2, 3]
        # rids follow their keys
        assert s.rids.tolist() == [1, 2, 0]

    def test_sorted_stable_for_ties(self):
        batch = RecordBatch.from_keys(np.array([2, 2, 1], np.float32))
        s = batch.sorted_by_key()
        assert s.rids.tolist() == [2, 0, 1]

    def test_empty(self):
        batch = RecordBatch.empty()
        assert len(batch) == 0
        assert batch.nbytes == 0
        assert batch.value_size == PAPER_VALUE_SIZE

    def test_concat(self):
        a = RecordBatch.from_keys(np.array([1], np.float32), rank=0)
        b = RecordBatch.from_keys(np.array([2], np.float32), rank=1)
        c = RecordBatch.concat([a, b])
        assert c.keys.tolist() == [1, 2]
        assert len(c) == 2

    def test_concat_skips_empties(self):
        a = RecordBatch.from_keys(np.array([1], np.float32))
        c = RecordBatch.concat([RecordBatch.empty(), a, RecordBatch.empty()])
        assert len(c) == 1

    def test_concat_empty_list(self):
        assert len(RecordBatch.concat([])) == 0

    def test_concat_mixed_value_sizes_rejected(self):
        a = RecordBatch.from_keys(np.array([1], np.float32), value_size=8)
        b = RecordBatch.from_keys(np.array([2], np.float32), value_size=16)
        with pytest.raises(ValueError, match="mixed"):
            RecordBatch.concat([a, b])

    def test_from_keys_assigns_rids(self):
        batch = RecordBatch.from_keys(
            np.array([1, 2], np.float32), rank=2, start_seq=10
        )
        assert np.all(rid_rank(batch.rids) == 2)
        assert rid_seq(batch.rids).tolist() == [10, 11]

    @given(st.lists(st.floats(0, 1e6, width=32), max_size=64))
    def test_sort_is_permutation(self, values):
        keys = np.array(values, dtype=np.float32)
        batch = RecordBatch.from_keys(keys)
        s = batch.sorted_by_key()
        assert np.all(np.diff(s.keys) >= 0)
        assert sorted(s.rids.tolist()) == sorted(batch.rids.tolist())

    def test_concat_all_empty_keeps_value_size(self):
        c = RecordBatch.concat([RecordBatch.empty(8), RecordBatch.empty(8)])
        assert len(c) == 0
        assert c.value_size == 8


def _batches(max_size=32):
    """Strategy: (keys, value_size) pairs for valid batches."""
    return st.tuples(
        st.lists(st.floats(-1e6, 1e6, width=32), max_size=max_size),
        st.sampled_from([8, 16, PAPER_VALUE_SIZE]),
    )


def _assert_valid(batch, value_size):
    """The invariants ``RecordBatch.__post_init__`` establishes."""
    assert batch.keys.dtype == KEY_DTYPE
    assert batch.rids.dtype == np.dtype("<u8")
    assert batch.keys.ndim == 1 and batch.rids.ndim == 1
    assert len(batch.keys) == len(batch.rids)
    assert batch.value_size == value_size
    assert np.all(np.isfinite(batch.keys))


class TestDerivedBatches:
    """``select``/``concat``/``sorted_by_key`` build results without
    re-validating; the results must still satisfy every invariant."""

    @given(_batches(), st.data())
    def test_derived_results_are_valid(self, spec, data):
        values, value_size = spec
        batch = RecordBatch.from_keys(
            np.array(values, np.float32), value_size=value_size
        )
        n = len(batch)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                        dtype=bool)
        index = np.array(data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                            max_size=n if n else 0)),
                         dtype=np.int64)
        a = data.draw(st.integers(0, n))
        b = data.draw(st.integers(a, n))
        derived = [
            batch.select(mask),
            batch.select(index),
            batch.select(slice(a, b)),
            batch.sorted_by_key(),
            RecordBatch.concat([batch.select(slice(a, b)), batch.select(mask)]),
        ]
        for sub in derived:
            _assert_valid(sub, value_size)
        assert derived[2].keys.tolist() == batch.keys[a:b].tolist()
        assert derived[2].rids.tolist() == batch.rids[a:b].tolist()

    def test_select_slice_is_a_view(self):
        batch = RecordBatch.from_keys(np.arange(10, dtype=np.float32))
        sub = batch.select(slice(2, 7))
        assert np.shares_memory(sub.keys, batch.keys)
        assert np.shares_memory(sub.rids, batch.rids)
        assert sub.keys.tolist() == [2, 3, 4, 5, 6]

    def test_derived_batches_are_not_revalidated(self, monkeypatch):
        calls = []
        original = RecordBatch.__post_init__

        def counting(self):
            calls.append(len(self.keys))
            original(self)

        batch = RecordBatch.from_keys(np.array([3, 1, 2], np.float32))
        monkeypatch.setattr(RecordBatch, "__post_init__", counting)
        batch.select(slice(1, None))
        batch.select(batch.keys > 1)
        batch.sorted_by_key()
        RecordBatch.concat([batch, batch])
        assert calls == []
        RecordBatch.from_keys(np.array([1.0], np.float32))
        assert calls == [1]

    def test_from_keys_still_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                RecordBatch.from_keys(np.array([1.0, bad], np.float32))

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
    range_mask,
    rid_rank,
    rid_seq,
    sorted_range,
)

from tests.kernels.scalar import BACKENDS, use_backend


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


# ------------------------------------------------- float32 edge-case keys

_F32_MAX = float(np.finfo(np.float32).max)
_F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
#: duplicates, both zeros, subnormals, the normal/subnormal boundary and
#: both ends of the float32 range
_EDGE_KEYS = [-0.0, 0.0, _F32_TINY, -_F32_TINY, 2 * _F32_TINY,
              float(np.finfo(np.float32).tiny), _F32_MAX, -_F32_MAX,
              1.0, -1.0, 0.1, -0.1]
_KEYS32 = st.one_of(
    st.sampled_from(_EDGE_KEYS),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


def _between(key: float, up: bool) -> float:
    """A float64 strictly between float32 ``key`` and its float32 neighbour."""
    k = np.float32(key)
    with np.errstate(over="ignore"):
        nxt = np.nextafter(k, np.float32(np.inf if up else -np.inf))
    if not np.isfinite(nxt):
        return float(np.nextafter(np.float64(k), np.inf if up else -np.inf))
    return (float(k) + float(nxt)) / 2


@st.composite
def _sorted_keys_and_bounds(draw):
    # Python's sort is stable and -0.0 == 0.0, so zeros stay interleaved
    keys = sorted(draw(st.lists(_KEYS32, max_size=40)))
    anchors = keys + _EDGE_KEYS
    bound = st.one_of(
        st.sampled_from(anchors),
        st.builds(_between, st.sampled_from(anchors), st.booleans()),
        st.sampled_from([np.inf, -np.inf, 3.5e38, -3.5e38]),
        st.floats(allow_nan=False),
    )
    lo, hi = sorted([draw(bound), draw(bound)])
    return np.array(keys, dtype=np.float32), float(lo), float(hi)


class TestSortedRange:
    """Binary search on conservatively rounded bounds selects exactly
    the rows ``range_mask`` selects, under its float64 contract."""

    @pytest.mark.parametrize("kernels", BACKENDS)
    @given(case=_sorted_keys_and_bounds())
    def test_equals_range_mask(self, kernels, case):
        keys, lo, hi = case
        rows = sorted_range(keys, lo, hi)
        with use_backend(kernels):
            want = np.flatnonzero(range_mask(keys, lo, hi))
        assert np.array_equal(np.arange(len(keys))[rows], want)
        assert rows.start <= rows.stop

    def test_bounds_between_adjacent_float32s(self):
        one = np.float32(1.0)
        up = float(np.nextafter(one, np.float32(2.0)))
        keys = np.array([1.0, up], dtype=np.float32)
        mid = (1.0 + up) / 2
        assert sorted_range(keys, mid, mid) == slice(1, 1)
        assert sorted_range(keys, 1.0, mid) == slice(0, 1)
        assert sorted_range(keys, mid, up) == slice(1, 2)

    def test_nan_and_inverted_bounds_match_nothing(self):
        keys = np.array([0.0, 1.0, 2.0], dtype=np.float32)
        for lo, hi in [(np.nan, 1.0), (0.0, np.nan), (2.0, 1.0)]:
            rows = sorted_range(keys, lo, hi)
            assert rows.start == rows.stop


class TestPackedSort:
    """``sorted_by_key`` is element-for-element the stable argsort."""

    @given(st.lists(_KEYS32, max_size=300))
    def test_equals_stable_argsort(self, values):
        keys = np.array(values, dtype=np.float32)
        batch = RecordBatch.from_keys(keys)
        s = batch.sorted_by_key()
        order = np.argsort(keys, kind="stable")
        assert s.rids.tolist() == batch.rids[order].tolist()
        # the keys are the originals moved, -0.0 still -0.0
        assert s.keys.tobytes() == keys[order].tobytes()

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single(self, n):
        batch = RecordBatch.from_keys(np.full(n, -0.0, np.float32), value_size=16)
        s = batch.sorted_by_key()
        assert s.keys.tobytes() == batch.keys.tobytes()
        assert s.rids.tolist() == batch.rids.tolist()
        assert s.value_size == 16

    def test_zeros_tie_by_position(self):
        batch = RecordBatch.from_keys(np.array([0.0, -0.0, 0.0, -0.0, -1.0],
                                               np.float32))
        assert batch.sorted_by_key().rids.tolist() == [4, 0, 1, 2, 3]

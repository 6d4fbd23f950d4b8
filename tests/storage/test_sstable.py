"""Unit tests for SSTable build/parse."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.records import RecordBatch
from repro.storage.blocks import BlockCorruptionError
from repro.storage.sstable import (
    FLAG_SORTED,
    FLAG_STRAY,
    HEADER_SIZE,
    build_sstable,
    keys_span_len,
    parse_header,
    parse_keys_only,
    parse_sstable,
)


def batch(*keys, value_size=8):
    return RecordBatch.from_keys(np.array(keys, np.float32), value_size=value_size)


class TestBuild:
    def test_roundtrip(self):
        b = batch(3.0, 1.0, 2.0)
        data, info = build_sstable(b, epoch=5)
        parsed_info, parsed = parse_sstable(data)
        assert parsed_info.epoch == 5
        assert parsed.keys.tolist() == [1.0, 2.0, 3.0]  # sorted
        assert sorted(parsed.rids.tolist()) == sorted(b.rids.tolist())

    def test_unsorted_preserves_order(self):
        b = batch(3.0, 1.0, 2.0)
        data, info = build_sstable(b, epoch=0, sort=False)
        assert not info.is_sorted
        _, parsed = parse_sstable(data)
        assert parsed.keys.tolist() == [3.0, 1.0, 2.0]

    def test_key_range_in_header(self):
        data, info = build_sstable(batch(5.0, 1.0, 9.0), epoch=0)
        assert info.kmin == 1.0 and info.kmax == 9.0

    def test_flags(self):
        _, info = build_sstable(batch(1.0), 0, sort=True, stray=True)
        assert info.flags == (FLAG_SORTED | FLAG_STRAY)
        assert info.is_stray and info.is_sorted

    def test_sub_id(self):
        _, info = build_sstable(batch(1.0), 0, sub_id=3)
        assert info.sub_id == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_sstable(RecordBatch.empty(8), 0)

    def test_value_size_preserved(self):
        data, info = build_sstable(batch(1.0, value_size=56), 0)
        assert info.value_size == 56
        _, parsed = parse_sstable(data)
        assert parsed.value_size == 56

    def test_total_len_matches(self):
        data, info = build_sstable(batch(1.0, 2.0), 0)
        assert len(data) == info.total_len


class TestParse:
    def test_header_only(self):
        data, _ = build_sstable(batch(1.0, 2.0), epoch=3)
        info = parse_header(data[:HEADER_SIZE])
        assert info.count == 2 and info.epoch == 3

    def test_keys_only(self):
        data, _ = build_sstable(batch(2.0, 1.0), 0)
        info, keys = parse_keys_only(data)
        assert keys.tolist() == [1.0, 2.0]

    def test_keys_only_without_value_block(self):
        data, info = build_sstable(batch(1.0, 2.0), 0)
        truncated = data[: keys_span_len(info.count)]
        _, keys = parse_keys_only(truncated)
        assert len(keys) == 2

    def test_bad_magic(self):
        data, _ = build_sstable(batch(1.0), 0)
        with pytest.raises(BlockCorruptionError, match="magic"):
            parse_header(b"XXXX" + data[4:])

    def test_header_crc(self):
        data = bytearray(build_sstable(batch(1.0), 0)[0])
        data[10] ^= 0xFF
        with pytest.raises(BlockCorruptionError):
            parse_header(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(BlockCorruptionError, match="truncated"):
            parse_header(b"KS")

    def test_truncated_body(self):
        data, _ = build_sstable(batch(1.0, 2.0), 0)
        with pytest.raises(BlockCorruptionError):
            parse_sstable(data[:-3])

    def test_key_block_corruption(self):
        data = bytearray(build_sstable(batch(1.0, 2.0), 0)[0])
        data[HEADER_SIZE] ^= 0xFF
        with pytest.raises(BlockCorruptionError):
            parse_sstable(bytes(data))

    @given(st.lists(st.floats(0, 1e6, width=32), min_size=1, max_size=50),
           st.integers(0, 100))
    @settings(max_examples=40)
    def test_roundtrip_property(self, values, epoch):
        b = RecordBatch.from_keys(np.array(values, np.float32), value_size=8)
        data, info = build_sstable(b, epoch)
        parsed_info, parsed = parse_sstable(data)
        assert parsed_info == info
        assert sorted(parsed.rids.tolist()) == sorted(b.rids.tolist())
        assert np.all(np.diff(parsed.keys) >= 0)
        assert parsed.keys.min() == info.kmin
        assert parsed.keys.max() == info.kmax

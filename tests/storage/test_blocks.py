"""Unit tests for key/value block encoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.records import make_rids
from repro.storage.blocks import (
    BlockCorruptionError,
    decode_key_block,
    decode_value_block,
    encode_key_block,
    encode_value_block,
    key_block_size,
    make_filler,
    value_block_size,
)


class TestKeyBlocks:
    def test_roundtrip(self):
        keys = np.array([1.5, -2.0, 3.25], dtype=np.float32)
        assert np.array_equal(decode_key_block(encode_key_block(keys)), keys)

    def test_empty(self):
        assert len(decode_key_block(encode_key_block(np.array([], np.float32)))) == 0

    def test_size_accounting(self):
        keys = np.zeros(10, np.float32)
        assert len(encode_key_block(keys)) == key_block_size(10)

    def test_crc_detects_corruption(self):
        data = bytearray(encode_key_block(np.array([1.0, 2.0], np.float32)))
        data[0] ^= 0xFF
        with pytest.raises(BlockCorruptionError, match="CRC"):
            decode_key_block(bytes(data))

    def test_truncation_detected(self):
        data = encode_key_block(np.array([1.0, 2.0], np.float32))
        with pytest.raises(BlockCorruptionError):
            decode_key_block(data[:-1])

    def test_misaligned_payload_detected(self):
        from repro.storage.blocks import _crc

        bad = b"abc"  # 3 bytes, not a multiple of 4
        with pytest.raises(BlockCorruptionError, match="multiple"):
            decode_key_block(bad + _crc(bad))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                    max_size=100))
    @settings(max_examples=50)
    def test_roundtrip_property(self, values):
        keys = np.array(values, dtype=np.float32)
        assert np.array_equal(decode_key_block(encode_key_block(keys)), keys)


class TestValueBlocks:
    def test_roundtrip(self):
        rids = make_rids(3, 100, 5)
        data = encode_value_block(rids, value_size=16)
        assert np.array_equal(decode_value_block(data, 16, 5), rids)

    def test_size_accounting(self):
        rids = make_rids(0, 0, 7)
        assert len(encode_value_block(rids, 60)) == value_block_size(7, 60)

    def test_paper_value_size(self):
        rids = make_rids(1, 0, 3)
        data = encode_value_block(rids, value_size=56)
        assert np.array_equal(
            decode_value_block(data, 56, 3, verify_filler=True), rids
        )

    def test_minimal_value_size(self):
        rids = make_rids(0, 0, 4)
        data = encode_value_block(rids, value_size=8)
        assert np.array_equal(decode_value_block(data, 8, 4), rids)

    def test_too_small_value_size(self):
        with pytest.raises(ValueError):
            encode_value_block(make_rids(0, 0, 1), value_size=4)

    def test_filler_is_deterministic(self):
        rids = make_rids(2, 5, 3)
        assert np.array_equal(make_filler(rids, 10), make_filler(rids, 10))

    def test_filler_verification_catches_tamper(self):
        rids = make_rids(0, 0, 2)
        data = bytearray(encode_value_block(rids, 16))
        # flip a filler byte and fix up nothing: CRC catches it first
        data[10] ^= 0x01
        with pytest.raises(BlockCorruptionError):
            decode_value_block(bytes(data), 16, 2, verify_filler=True)

    def test_crc_detects_corruption(self):
        data = bytearray(encode_value_block(make_rids(0, 0, 2), 8))
        data[3] ^= 0x80
        with pytest.raises(BlockCorruptionError, match="CRC"):
            decode_value_block(bytes(data), 8, 2)

    def test_wrong_value_size_detected(self):
        data = encode_value_block(make_rids(0, 0, 3), 8)
        with pytest.raises(BlockCorruptionError):
            decode_value_block(data, 16, 3)

    @given(rank=st.integers(0, 100), count=st.integers(0, 50),
           vsize=st.sampled_from([8, 12, 56, 60]))
    @settings(max_examples=50)
    def test_roundtrip_property(self, rank, count, vsize):
        rids = make_rids(rank, 0, count)
        data = encode_value_block(rids, vsize)
        assert np.array_equal(
            decode_value_block(data, vsize, count, verify_filler=True), rids
        )

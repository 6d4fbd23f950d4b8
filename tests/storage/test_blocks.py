"""Unit tests for key/value block encoding and the chunk index."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.records import make_rids
from repro.storage.blocks import (
    CHUNK_RECORDS,
    BlockCorruptionError,
    chunk_count,
    chunk_index_size,
    decode_chunk_index,
    decode_key_block,
    decode_value_block,
    encode_chunk_index,
    encode_key_block,
    encode_value_block,
    key_block_size,
    make_filler,
    value_block_size,
    zone_map,
)


class TestKeyBlocks:
    def test_roundtrip(self):
        keys = np.array([1.5, -2.0, 3.25], dtype=np.float32)
        assert np.array_equal(decode_key_block(*encode_key_block(keys)), keys)

    def test_empty(self):
        assert len(decode_key_block(*encode_key_block(np.array([], np.float32)))) == 0

    def test_size_accounting(self):
        keys = np.zeros(10, np.float32)
        assert len(encode_key_block(keys)[0]) == key_block_size(10)

    def test_crc_detects_corruption(self):
        payload, crcs = encode_key_block(np.array([1.0, 2.0], np.float32))
        data = bytearray(payload)
        data[0] ^= 0xFF
        with pytest.raises(BlockCorruptionError, match="key chunk 0: CRC"):
            decode_key_block(bytes(data), crcs)

    def test_truncation_detected(self):
        data, crcs = encode_key_block(np.array([1.0, 2.0], np.float32))
        with pytest.raises(BlockCorruptionError):
            decode_key_block(data[:-1], crcs)
        with pytest.raises(BlockCorruptionError, match="chunk table"):
            decode_key_block(data[:-4], [])

    def test_misaligned_payload_detected(self):
        bad = b"abc"  # 3 bytes, not a multiple of 4
        with pytest.raises(BlockCorruptionError, match="multiple"):
            decode_key_block(bad, [zlib.crc32(bad)])

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                    max_size=600))
    @settings(max_examples=50)
    def test_roundtrip_property(self, values):
        keys = np.array(values, dtype=np.float32)
        payload, crcs = encode_key_block(keys)
        assert len(crcs) == chunk_count(len(keys))
        assert np.array_equal(decode_key_block(payload, crcs), keys)


class TestValueBlocks:
    def test_roundtrip(self):
        rids = make_rids(3, 100, 5)
        data, crcs = encode_value_block(rids, value_size=16)
        assert np.array_equal(decode_value_block(data, crcs, 16, 5), rids)

    def test_size_accounting(self):
        rids = make_rids(0, 0, 7)
        assert len(encode_value_block(rids, 60)[0]) == value_block_size(7, 60)

    def test_paper_value_size(self):
        rids = make_rids(1, 0, 3)
        data, crcs = encode_value_block(rids, value_size=56)
        assert np.array_equal(
            decode_value_block(data, crcs, 56, 3, verify_filler=True), rids
        )

    def test_minimal_value_size(self):
        rids = make_rids(0, 0, 4)
        data, crcs = encode_value_block(rids, value_size=8)
        assert np.array_equal(decode_value_block(data, crcs, 8, 4), rids)

    def test_too_small_value_size(self):
        with pytest.raises(ValueError):
            encode_value_block(make_rids(0, 0, 1), value_size=4)

    def test_filler_is_deterministic(self):
        rids = make_rids(2, 5, 3)
        assert np.array_equal(make_filler(rids, 10), make_filler(rids, 10))

    def test_filler_verification_catches_tamper(self):
        rids = make_rids(0, 0, 2)
        payload, crcs = encode_value_block(rids, 16)
        data = bytearray(payload)
        # flip a filler byte and fix up nothing: CRC catches it first
        data[10] ^= 0x01
        with pytest.raises(BlockCorruptionError):
            decode_value_block(bytes(data), crcs, 16, 2, verify_filler=True)

    def test_crc_detects_corruption(self):
        payload, crcs = encode_value_block(make_rids(0, 0, 2), 8)
        data = bytearray(payload)
        data[3] ^= 0x80
        with pytest.raises(BlockCorruptionError, match="value chunk 0: CRC"):
            decode_value_block(bytes(data), crcs, 8, 2)

    def test_wrong_value_size_detected(self):
        data, crcs = encode_value_block(make_rids(0, 0, 3), 8)
        with pytest.raises(BlockCorruptionError):
            decode_value_block(data, crcs, 16, 3)

    @given(rank=st.integers(0, 100), count=st.integers(0, 600),
           vsize=st.sampled_from([8, 12, 56, 60]))
    @settings(max_examples=50)
    def test_roundtrip_property(self, rank, count, vsize):
        rids = make_rids(rank, 0, count)
        data, crcs = encode_value_block(rids, vsize)
        assert np.array_equal(
            decode_value_block(data, crcs, vsize, count, verify_filler=True),
            rids,
        )


class TestChunkIndex:
    def test_zone_map_is_each_chunks_min_and_max(self):
        keys = np.arange(2 * CHUNK_RECORDS + 7, dtype=np.float32)[::-1].copy()
        zones = zone_map(keys)
        assert zones.shape == (3, 2)
        for i, (zmin, zmax) in enumerate(zones):
            chunk = keys[i * CHUNK_RECORDS : (i + 1) * CHUNK_RECORDS]
            assert (zmin, zmax) == (chunk.min(), chunk.max())

    def test_roundtrip_and_size(self):
        keys = np.linspace(-5.0, 5.0, CHUNK_RECORDS + 1, dtype=np.float32)
        _keys, key_crcs = encode_key_block(keys)
        _values, value_crcs = encode_value_block(make_rids(0, 0, len(keys)), 8)
        data = encode_chunk_index(zone_map(keys), key_crcs, value_crcs)
        # a zone (8 B) and a CRC pair (8 B) per chunk, then one CRC
        assert len(data) == chunk_index_size(len(keys)) == 2 * 16 + 4
        zones, crcs = decode_chunk_index(data, len(keys))
        assert np.array_equal(zones, zone_map(keys))
        assert crcs[:, 0].tolist() == key_crcs.tolist()
        assert crcs[:, 1].tolist() == value_crcs.tolist()

    @pytest.mark.parametrize("offset", [0, 9, 20, 35])
    def test_any_flip_is_caught(self, offset):
        keys = np.arange(CHUNK_RECORDS + 1, dtype=np.float32)
        _keys, crcs = encode_key_block(keys)
        data = bytearray(encode_chunk_index(zone_map(keys), crcs, crcs))
        data[offset] ^= 0x10
        with pytest.raises(BlockCorruptionError, match="chunk index"):
            decode_chunk_index(bytes(data), len(keys))

    def test_wrong_count_is_caught(self):
        keys = np.arange(3, dtype=np.float32)
        _keys, crcs = encode_key_block(keys)
        data = encode_chunk_index(zone_map(keys), crcs, crcs)
        with pytest.raises(BlockCorruptionError, match="record count"):
            decode_chunk_index(data, CHUNK_RECORDS + 1)

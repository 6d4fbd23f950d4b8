"""Unit tests for memtables."""

import numpy as np
import pytest

from repro.core.records import RecordBatch
from repro.storage.memtable import Memtable


def batch(n, value_size=8):
    return RecordBatch.from_keys(np.arange(n, dtype=np.float32),
                                 value_size=value_size)


class TestMemtable:
    def test_validation(self):
        with pytest.raises(ValueError):
            Memtable(0, 8)

    def test_add_and_len(self):
        m = Memtable(10, 8)
        m.add(batch(3))
        m.add(batch(2))
        assert len(m) == 5

    def test_is_full(self):
        m = Memtable(4, 8)
        m.add(batch(3))
        assert not m.is_full
        m.add(batch(1))
        assert m.is_full

    def test_can_exceed_capacity_transiently(self):
        m = Memtable(2, 8)
        m.add(batch(10))
        assert len(m) == 10
        assert m.is_full

    def test_drain(self):
        m = Memtable(10, 8)
        m.add(batch(4))
        out = m.drain()
        assert len(out) == 4
        assert len(m) == 0
        assert not m.is_full

    def test_drain_empty(self):
        m = Memtable(10, 16)
        out = m.drain()
        assert len(out) == 0
        assert out.value_size == 16

    def test_value_size_enforced(self):
        m = Memtable(10, 8)
        with pytest.raises(ValueError):
            m.add(batch(1, value_size=16))

    def test_empty_add_ignored(self):
        m = Memtable(10, 8)
        m.add(RecordBatch.empty(8))
        assert len(m) == 0

    def test_nbytes(self):
        m = Memtable(10, 8)
        m.add(batch(5))
        assert m.nbytes == 5 * 12  # 4B key + 8B value

    def test_drain_at_capacity_returns_contents(self):
        m = Memtable(4, 8)
        m.add(batch(4))
        assert m.is_full
        out = m.drain()
        assert len(out) == 4
        assert not m.is_full
        # the drained table is reusable straight away
        m.add(batch(2))
        assert len(m.drain()) == 2

    def test_drain_empty_feeds_same_sized_memtable(self):
        # regression: concat of zero parts used to fall back to the
        # paper default (56B), breaking a later add() of the drained
        # batch into a same-sized memtable
        out = Memtable(4, 16).drain()
        assert out.value_size == 16
        Memtable(4, 16).add(out)  # must not raise

    def test_drain_after_partial_fill_preserves_value_size(self):
        m = Memtable(4, 16)
        m.add(batch(2, value_size=16))
        assert m.drain().value_size == 16

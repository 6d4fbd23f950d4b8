"""Unit tests for the delivery-delay queue."""

import numpy as np
import pytest

from repro.core.records import RecordBatch
from repro.shuffle.flow import DelayQueue


def batch(n=1):
    return RecordBatch.from_keys(np.arange(n, dtype=np.float32), value_size=8)


class TestDelayQueue:
    def test_zero_delay_delivers_same_tick(self):
        q = DelayQueue(0)
        q.send(0, batch(3))
        arrived = q.tick()
        assert len(arrived) == 1
        assert len(arrived[0].batch) == 3

    def test_one_round_delay(self):
        q = DelayQueue(1)
        q.send(0, batch())
        assert q.tick() == []
        assert len(q.tick()) == 1

    def test_two_round_delay(self):
        q = DelayQueue(2)
        q.send(0, batch())
        assert q.tick() == []
        assert q.tick() == []
        assert len(q.tick()) == 1

    def test_fifo_within_slot(self):
        q = DelayQueue(0)
        q.send(0, batch(1))
        q.send(1, batch(2))
        arrived = q.tick()
        assert [m.dest for m in arrived] == [0, 1]

    def test_in_flight_accounting(self):
        q = DelayQueue(2)
        q.send(0, batch(5))
        q.send(1, batch(3))
        assert q.in_flight == 8
        q.tick()
        assert q.in_flight == 8
        q.tick()
        q.tick()
        assert q.in_flight == 0

    def test_empty_batch_dropped(self):
        q = DelayQueue(0)
        q.send(0, RecordBatch.empty(8))
        assert q.tick() == []

    def test_negative_dest_rejected(self):
        with pytest.raises(ValueError):
            DelayQueue(0).send(-1, batch())

    def test_drain_flushes_everything(self):
        q = DelayQueue(3)
        q.send(0, batch(2))
        q.tick()
        q.send(1, batch(4))
        arrived = q.drain()
        assert sum(len(m.batch) for m in arrived) == 6
        assert q.in_flight == 0
        assert q.tick() == []

    def test_delay_validation(self):
        with pytest.raises(ValueError):
            DelayQueue(-1)

    def test_interleaved_sends_and_ticks(self):
        q = DelayQueue(1)
        q.send(0, batch(1))
        assert q.tick() == []
        q.send(0, batch(2))
        first = q.tick()
        assert len(first) == 1 and len(first[0].batch) == 1
        second = q.tick()
        assert len(second) == 1 and len(second[0].batch) == 2

"""In-flight shuffle traffic: the delivery-delay queue.

The physical shuffle fabric batches records into RPC buffers and takes
time to deliver them.  The consequence the paper cares about is *stray
keys* (§V-D): a record dispatched under partition-table version ``v``
may be delivered after the table has moved to ``v + 1``, in which case
it can land on a rank that no longer owns its key.

:class:`DelayQueue` models this with a configurable delivery delay in
simulation rounds.  A receiver (KoiDB) recognizes a stray arrival by
checking its keys against the range it owns when the message lands.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.records import RecordBatch


@dataclass(frozen=True)
class ShuffleMessage:
    """A batch of records in flight toward ``dest``."""

    dest: int
    batch: RecordBatch


class DelayQueue:
    """FIFO fabric with a fixed delivery delay measured in rounds.

    ``delay_rounds == 0`` delivers within the same round's
    :meth:`tick`; larger values hold messages for that many additional
    rounds, widening the window in which a renegotiation can turn them
    into strays.
    """

    def __init__(self, delay_rounds: int = 1) -> None:
        if delay_rounds < 0:
            raise ValueError("delay_rounds must be >= 0")
        self.delay_rounds = delay_rounds
        # slot i (from the front) arrives after i ticks; a normal send
        # lands at index ``delay_rounds``, a fault-delayed one further
        # back (slots extend lazily)
        self._slots: deque[list[ShuffleMessage]] = deque(
            [[] for _ in range(delay_rounds + 1)]
        )
        # fault-dropped messages: withheld from every tick, retransmitted
        # only by the epoch-end drain, so delivery is late but never lost
        self._dropped: list[ShuffleMessage] = []
        self._in_flight_records = 0

    @property
    def in_flight(self) -> int:
        """Number of records currently traversing the fabric."""
        return self._in_flight_records

    def _slot(self, index: int) -> list[ShuffleMessage]:
        while len(self._slots) <= index:
            self._slots.append([])
        return self._slots[index]

    def send(
        self,
        dest: int,
        batch: RecordBatch,
        extra_delay: int = 0,
        drop: bool = False,
    ) -> None:
        """Dispatch a batch toward ``dest``.

        ``extra_delay`` holds the message that many rounds beyond the
        fabric's base delay; ``drop=True`` withholds it from every tick
        entirely (delivered only by :meth:`drain` — the fault model is
        a lost-then-retransmitted send, never silent data loss).  Both
        are the ``shuffle.send`` fault-site hooks.
        """
        if len(batch) == 0:
            return
        if dest < 0:
            raise ValueError(f"invalid destination {dest}")
        if extra_delay < 0:
            raise ValueError("extra_delay must be >= 0")
        message = ShuffleMessage(dest, batch)
        if drop:
            self._dropped.append(message)
        else:
            self._slot(self.delay_rounds + extra_delay).append(message)
        self._in_flight_records += len(batch)

    def tick(self) -> list[ShuffleMessage]:
        """Advance one round; return the messages that arrive now."""
        arrived = self._slots.popleft()
        if len(self._slots) <= self.delay_rounds:
            self._slots.append([])
        self._in_flight_records -= sum(len(m.batch) for m in arrived)
        return arrived

    def drain(self) -> list[ShuffleMessage]:
        """Flush the fabric: deliver everything still in flight.

        Used at epoch end, where CARP flushes all data to disk to align
        with the application's checkpoint fault-tolerance semantics
        (paper §V-A).  Dropped messages are retransmitted here, after
        all regular traffic.
        """
        arrived: list[ShuffleMessage] = []
        for slot in self._slots:
            arrived.extend(slot)
            slot.clear()
        arrived.extend(self._dropped)
        self._dropped.clear()
        self._in_flight_records = 0
        return arrived

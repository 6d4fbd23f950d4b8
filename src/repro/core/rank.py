"""Per-rank CARP sender state.

Each application rank participating in CARP keeps (paper §V-B/C):

* a replicated copy of the current partition table (held by the run
  driver and shared),
* a lossy histogram of the keys it has shuffled since the last
  renegotiation, binned by the current table's partition ranges,
* an Out-Of-Bounds buffer for keys the table cannot route.

At renegotiation time the rank contributes a pivot set computed from
histogram + OOB contents, then resets its local statistics.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import CarpOptions
from repro.core.histogram import RankHistogram
from repro.core.oob import OOBBuffer
from repro.core.partition import OOB_DEST, PartitionTable
from repro.core.pivots import Pivots, pivots_from_histogram
from repro.core.sampling import BiasedReservoirSampler, ReservoirSampler


class CarpRankState:
    """Sender-side CARP state for one application rank."""

    def __init__(self, rank: int, options: CarpOptions) -> None:
        self.rank = rank
        self.options = options
        self.hist = RankHistogram()
        self.reservoir: ReservoirSampler | None
        if options.stats_backend == "reservoir":
            self.reservoir = ReservoirSampler(
                options.reservoir_capacity, seed=options.seed * 65_537 + rank
            )
        elif options.stats_backend == "recency_reservoir":
            self.reservoir = BiasedReservoirSampler(
                options.reservoir_capacity, seed=options.seed * 65_537 + rank
            )
        else:
            self.reservoir = None
        self.oob = OOBBuffer(options.oob_capacity, options.value_size)
        self.sent_records = 0
        self._has_table = False

    def reset_for_epoch(self) -> None:
        """Forget everything; CARP bootstraps each epoch from scratch."""
        self.hist = RankHistogram()
        if self.reservoir is not None:
            self.reservoir.reset()
        self.oob = OOBBuffer(self.options.oob_capacity, self.options.value_size)
        self.sent_records = 0
        self._has_table = False

    def adopt_table(self, table: PartitionTable) -> None:
        """Switch to a new partition table: rebin and reset local stats
        (paper §V-C step 5)."""
        self.hist.rebin(table.bounds)
        if self.reservoir is not None:
            self.reservoir.reset()
        self._has_table = True

    def observe_sent(self, keys: np.ndarray, dests: np.ndarray) -> None:
        """Account keys this rank just routed under the current table.

        ``dests`` are the keys' destinations; out-of-bounds keys
        (:data:`OOB_DEST`) were buffered, not sent, and are skipped.
        The histogram adds per-destination counts, since its bins are
        the table's partitions (:meth:`adopt_table`); a reservoir
        observes the sent keys in destination order, the order the
        shuffle groups them in.
        """
        sent = dests != OOB_DEST
        if self.reservoir is not None:
            self.reservoir.observe(
                keys[sent][np.argsort(dests[sent], kind="stable")]
            )
        else:
            self.hist.observe_routed(dests[sent])
        self.sent_records += int(np.count_nonzero(sent))

    def compute_pivots(self) -> Pivots | None:
        """Summary-statistics step of renegotiation.

        Folds in the OOB buffer contents (paper: "We also factor in the
        keys in the local OOB buffer for pivot computation").  Returns
        ``None`` when this rank has observed nothing yet.
        """
        if self.reservoir is not None:
            return self.reservoir.compute_pivots(
                self.options.pivot_count, self.oob.keys()
            )
        edges = self.hist.edges if self._has_table else None
        counts = self.hist.counts if self._has_table else None
        return pivots_from_histogram(
            edges, counts, self.options.pivot_count, self.oob.keys()
        )

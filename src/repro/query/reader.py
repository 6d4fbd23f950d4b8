"""The paper's ``range-reader`` artifact (A5): its analyze mode.

:func:`analyze_store` — basic statistics of a partitioned store and
per-probe selectivity at points of the keyspace — is what ``carp
range-reader -a`` prints.  A single range query is one
:meth:`PartitionedStore.query`, and ``carp explain`` runs and
reconciles it from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.query.engine import PartitionedStore
from repro.query.metrics import selectivity_profile


@dataclass(frozen=True)
class StoreAnalysis:
    """Output of analyze mode."""

    epochs: tuple[int, ...]
    total_records: int
    total_bytes: int
    ssts: int
    probe_keys: tuple[float, ...]
    probe_selectivity: tuple[float, ...]

    @property
    def median_selectivity(self) -> float:
        return float(np.median(self.probe_selectivity))


def analyze_store(
    store: PartitionedStore, epoch: int | None = None, probes: int = 9
) -> StoreAnalysis:
    """Analysis mode: store stats + selectivity at keyspace probes.

    ``epoch=None`` analyzes the first stored epoch.
    """
    epochs = store.epochs()
    if not epochs:
        raise ValueError("store holds no epochs")
    target = epochs[0] if epoch is None else epoch
    lo, hi = store.key_range(target)
    # probes are uniform in key space — evenly spaced strictly inside
    # the epoch's [kmin, kmax] — not at data quantiles
    probe_keys = np.linspace(lo, hi, probes + 2)[1:-1]
    sel = selectivity_profile(store, target, probe_keys)
    return StoreAnalysis(
        epochs=tuple(epochs),
        total_records=store.total_records(target),
        total_bytes=store.total_bytes(target),
        ssts=len(store.entries(target)),
        probe_keys=tuple(float(k) for k in probe_keys),
        probe_selectivity=tuple(float(s) for s in sel),
    )


"""Query-quality metrics: selectivity and Read Amplification (RAF).

The paper measures partition quality with *Read Amplification* (§VII-C3):
the ratio of the data an index must read for a query against what a
hypothetical perfectly balanced partitioning would read.  An RAF of 1x
is ideal; stray keys can blow it up to 16-64x by inflating SST key
ranges, and KoiDB's repartitioning brings it back to 1-2x (Fig. 10c).

RAF here is probe-based: for a probe key, the "actual CARP partition"
is the set of SSTs whose manifest range contains the key, and the
ideal read is ``total_bytes / nparts``.
"""

from __future__ import annotations

import numpy as np

from repro.query.engine import PartitionedStore


def selectivity(matched_records: int, total_records: int) -> float:
    """Fraction of the dataset a query matched."""
    if total_records <= 0:
        raise ValueError("total_records must be positive")
    return matched_records / total_records


def read_amplification_profile(
    store: PartitionedStore,
    epoch: int,
    probes: np.ndarray,
    nparts: int,
    include_strays: bool = True,
) -> np.ndarray:
    """RAF at each probe key.

    ``nparts`` is the partition count defining the perfectly balanced
    read size.  ``include_strays=False`` excludes stray-flagged SSTs,
    isolating the quality of the main partitioned data.
    """
    from repro.storage.sstable import FLAG_STRAY

    probes = np.asarray(probes, dtype=np.float64)
    entries = store.entries(epoch)
    total_bytes = sum(e.length for _, e in entries)
    if total_bytes == 0:
        raise ValueError(f"epoch {epoch} holds no data")
    ideal = total_bytes / nparts
    if not include_strays:
        entries = [(i, e) for i, e in entries if not (e.flags & FLAG_STRAY)]
        if not entries:
            raise ValueError(
                f"epoch {epoch} holds only stray SSTs; "
                "include_strays=False leaves nothing to profile"
            )
    kmin = np.array([e.kmin for _, e in entries])
    kmax = np.array([e.kmax for _, e in entries])
    length = np.array([e.length for _, e in entries], dtype=np.float64)
    # probes x entries containment matrix
    contains = (kmin[None, :] <= probes[:, None]) & (probes[:, None] <= kmax[None, :])
    read = contains @ length
    return read / ideal


def selectivity_profile(
    store: PartitionedStore, epoch: int, probes: np.ndarray
) -> np.ndarray:
    """Minimum effective selectivity at each probe key.

    Fraction of the epoch's bytes that must be read for a point-sized
    query at the probe — the paper's artifact "analysis mode" reports
    ~6% for the micro trace (1/16 ranks rounded up by stray overlap).
    """
    probes = np.asarray(probes, dtype=np.float64)
    total = store.total_bytes(epoch)
    if total == 0:
        raise ValueError(f"epoch {epoch} holds no data")
    return np.array([
        sum(e.length for _, e in store.overlapping_entries(epoch, k, k)) / total
        for k in probes.tolist()
    ])


def raf_percentiles(
    raf: np.ndarray, percentiles: tuple[float, ...] = (50.0, 99.0)
) -> tuple[float, ...]:
    """Summary percentiles of a RAF profile (Fig. 10c reports p50/p99)."""
    raf = np.asarray(raf, dtype=np.float64)
    if len(raf) == 0:
        raise ValueError("empty RAF profile")
    return tuple(float(np.percentile(raf, p)) for p in percentiles)

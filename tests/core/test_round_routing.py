"""Round routing: one pass across ranks, with per-rank semantics kept.

``CarpRun._route_round`` routes the pieces of every rank still to route
in one pass: one ``range_route``, one grouping and one message per
destination, up to and including the first rank whose OOB buffer
fills.  These tests hold it to the per-rank chain it replaced: each
rank routes, groups, sends one message per destination and buffers
its out-of-bounds records, and when its buffer fills it renegotiates
and retries its overflow before the next rank starts.  That reference
is patched onto ``CarpRun`` and both must write the same log and
manifest bytes and report the same ``EpochStats``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.core.records import RecordBatch
from repro.core.triggers import TriggerReason
from repro.shuffle.router import range_route, split_by_destination

EPOCHS = 2


def _observe_keys(rank, keys):
    """Account sent keys without their destinations (the reference's way)."""
    if rank.reservoir is not None:
        rank.reservoir.observe(keys)
    else:
        rank.hist.observe(keys)
    rank.sent_records += len(keys)


def _route_one_rank(run, r, batch):
    """One rank's chain: route, group, send, buffer, retry after a refill."""
    rank = run.ranks[r]
    pending = batch
    for _attempt in range(64):
        if len(pending) == 0:
            return pending
        if run.table is None:
            return rank.oob.add(pending)
        dests = range_route(pending, run.table)
        per_dest, oob_batch = split_by_destination(pending, dests)
        if per_dest:
            _observe_keys(rank, np.concatenate([b.keys for b in per_dest.values()]))
            for dest, sub in per_dest.items():
                run._send(dest, sub)
        if len(oob_batch) == 0:
            return oob_batch
        overflow = rank.oob.add(oob_batch)
        if rank.oob.is_full:
            run._renegotiate(TriggerReason.OOB_FULL)
        pending = overflow
    raise RuntimeError("routing did not converge")


def _route_round_per_rank(self, pending):
    return {
        r: left
        for r, piece in pending.items()
        if len(left := _route_one_rank(self, r, piece))
    }


def _streams(seed, nranks, epoch, sizes):
    """Drifting per-rank streams: ±0.0, duplicates and a rank-skewed tail."""
    rng = np.random.default_rng([seed, epoch])
    out = []
    for r, n in enumerate(sizes):
        keys = rng.uniform(0.0, 1.0 + epoch, n) * (1 + r) ** rng.uniform(0, 2)
        keys[rng.random(n) < 0.1] = -0.0
        keys[rng.random(n) < 0.1] = 0.0
        keys[rng.random(n) < 0.1] = 0.5
        out.append(RecordBatch.from_keys(
            keys.astype(np.float32), rank=r, start_seq=epoch << 20, value_size=8,
        ))
    return out


def _ingest(tmp_path, name, nranks, nreceivers, opts, epoch_streams, reference):
    """Ingest every epoch; return (file bytes by name, per-epoch stats, OOB_FULL fill ranks)."""
    out_dir = tmp_path / name
    fills: list[list[int]] = []
    real_reneg = CarpRun._renegotiate

    def spy(self, reason):
        if reason == TriggerReason.OOB_FULL:
            fills.append([r for r, rank in enumerate(self.ranks) if rank.oob.is_full])
        real_reneg(self, reason)

    original = CarpRun.__dict__["_route_round"]
    try:
        CarpRun._renegotiate = spy
        if reference:
            CarpRun._route_round = _route_round_per_rank
        with CarpRun(nranks, out_dir, opts, nreceivers=nreceivers) as run:
            stats = [run.ingest_epoch(e, s) for e, s in enumerate(epoch_streams)]
            run.write_run_manifest()
    finally:
        CarpRun._renegotiate = real_reneg
        CarpRun._route_round = original
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    summary = [
        (s.records, s.rounds, s.renegotiations, s.triggers.events,
         s.partition_loads.tolist(), s.stray_records,
         [t.bounds.tolist() for t in s.table_history])
        for s in stats
    ]
    return files, summary, fills


def _check_equivalent(tmp_path, nranks, nreceivers, opts, epoch_streams):
    args = (nranks, nreceivers, opts, epoch_streams)
    files, stats, fills = _ingest(tmp_path, "pass", *args, reference=False)
    ref_files, ref_stats, ref_fills = _ingest(tmp_path, "per-rank", *args, reference=True)
    assert sorted(files) == sorted(ref_files)
    for name in files:
        assert files[name] == ref_files[name], name
    assert stats == ref_stats
    assert fills == ref_fills
    return fills


@st.composite
def _configs(draw):
    nranks = draw(st.integers(1, 5))
    opts = CarpOptions(
        pivot_count=draw(st.integers(4, 32)),
        oob_capacity=draw(st.integers(2, 64)),
        renegotiations_per_epoch=draw(st.integers(1, 4)),
        memtable_records=draw(st.integers(4, 64)),
        subpartitions=draw(st.integers(1, 2)),
        shuffle_delay_rounds=draw(st.integers(0, 2)),
        round_records=draw(st.integers(8, 64)),
        value_size=8,
        warm_start=draw(st.booleans()),
        stats_backend=draw(st.sampled_from(
            ["histogram", "reservoir", "recency_reservoir"])),
        reservoir_capacity=draw(st.integers(2, 64)),
    )
    nreceivers = draw(st.integers(1, nranks))
    seed = draw(st.integers(0, 2**16))
    epoch_streams = []
    for epoch in range(EPOCHS):
        sizes = draw(st.lists(st.integers(0, 200), min_size=nranks, max_size=nranks))
        if sum(sizes) == 0:
            sizes[0] = 1
        epoch_streams.append(_streams(seed, nranks, epoch, sizes))
    return nranks, nreceivers, opts, epoch_streams


@given(config=_configs())
@settings(max_examples=60, deadline=None)
def test_round_pass_matches_per_rank_chains(tmp_path_factory, config):
    _check_equivalent(tmp_path_factory.mktemp("cfg"), *config)


def test_oob_full_from_a_middle_rank(tmp_path):
    """A rank in the middle of a pass fills its buffer: the pass stops there.

    Rank 2's keys drift above the table while its neighbours stay
    inside, so its buffer fills mid-round with ranks routed on both
    sides of it; the renegotiation must see exactly what the per-rank
    chains left behind.
    """
    nranks = 4
    opts = CarpOptions(
        pivot_count=16, oob_capacity=8, renegotiations_per_epoch=1,
        memtable_records=32, round_records=32, value_size=8,
        shuffle_delay_rounds=1,
    )
    rng = np.random.default_rng(3)
    epoch_streams = []
    for epoch in range(EPOCHS):
        streams = []
        for r in range(nranks):
            keys = rng.uniform(0.0, 1.0, 256)
            if r == 2:
                keys += np.linspace(0.0, 4.0, 256)
            streams.append(RecordBatch.from_keys(
                keys.astype(np.float32), rank=r, start_seq=epoch << 20, value_size=8,
            ))
        epoch_streams.append(streams)
    fills = _check_equivalent(tmp_path, nranks, nranks, opts, epoch_streams)
    assert [2] in fills

"""Property test: fsck passes on any freshly written KoiDB directory.

For every trace generator and a hypothesis-drawn combination of rank
count, records per rank, and seed, a full ingest through ``CarpRun``
must produce a directory that ``fsck`` certifies clean with exactly
the records that went in.  This is the end-to-end counterpart of the
per-format invariants enforced by carp-lint's F-rules (see
docs/INVARIANTS.md).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.carp import CarpRun
from repro.core.config import CarpOptions
from repro.storage.fsck import fsck
from repro.traces import amr, vpic

GENERATORS = {
    "vpic": (vpic.VpicTraceSpec, vpic.generate_timestep),
    "amr": (amr.AmrTraceSpec, amr.generate_timestep),
}

OPTS = CarpOptions(
    pivot_count=16, oob_capacity=64, renegotiations_per_epoch=2,
    memtable_records=128, round_records=128, value_size=56,
)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    trace=st.sampled_from(sorted(GENERATORS)),
    nranks=st.integers(min_value=1, max_value=4),
    per_rank=st.integers(min_value=32, max_value=256),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fresh_koidb_dir_is_fsck_clean(tmp_path, trace, nranks, per_rank, seed):
    spec_cls, generate = GENERATORS[trace]
    kw = (
        {"particles_per_rank": per_rank}
        if trace == "vpic"
        else {"cells_per_rank": per_rank}
    )
    spec = spec_cls(nranks=nranks, timesteps=(0,), seed=seed, **kw)
    streams = generate(spec, 0)

    out = tmp_path / f"{trace}-{nranks}-{per_rank}-{seed}"
    with CarpRun(nranks, out, OPTS) as run:
        run.ingest_epoch(0, streams)

    report = fsck(out)
    assert report.ok, report.errors
    assert report.logs_checked == nranks
    assert report.records_checked == nranks * per_rank
    assert report.epochs == {0}


# --------------------------------------------------------- crash points
#
# Recovery's core property (paper §V-A): whatever byte a crash stops
# the log at, repair yields a *prefix* of the committed epochs — never
# a superset, never invented entries — cut exactly at an epoch
# boundary.

import shutil  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.records import RecordBatch  # noqa: E402
from repro.storage.log import QUARANTINE_DIR, LogReader, LogWriter, log_name  # noqa: E402
from repro.storage.recovery import (  # noqa: E402
    KIND_CLEAN,
    KIND_CORRUPT_SST,
    classify_log,
    repair_log,
)

_CRASH_EPOCHS = 3


def _fresh_dir(path):
    """An empty ``path``: hypothesis may run one example more than once
    (database replay, shrinking, the final reproduction pass)."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    return path


def _build_reference_log(directory, seed: int):
    """A 3-epoch log plus its per-epoch commit-point offsets."""
    rng = np.random.default_rng(seed)
    path = directory / log_name(0)
    boundaries = [0]
    entries_per_epoch = []
    with LogWriter(path) as writer:
        for epoch in range(_CRASH_EPOCHS):
            epoch_entries = []
            for sub in range(2):
                batch = RecordBatch.from_keys(
                    rng.uniform(0.0, 1.0, 48).astype(np.float32),
                    rank=0,
                    start_seq=epoch * 1000 + sub * 100,
                    value_size=8,
                )
                epoch_entries.append(writer.append_batch(batch, epoch))
            writer.flush_epoch(epoch)
            boundaries.append(writer.offset)
            entries_per_epoch.append(tuple(epoch_entries))
    return path, path.read_bytes(), boundaries, entries_per_epoch


@settings(
    max_examples=24,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    cut_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_any_crash_point_recovers_to_an_epoch_prefix(
    tmp_path, seed, cut_fraction
):
    workdir = _fresh_dir(tmp_path / f"cut-{seed}-{cut_fraction}")
    path, data, boundaries, entries_per_epoch = _build_reference_log(
        workdir, seed
    )
    cut = int(len(data) * cut_fraction)
    path.write_bytes(data[:cut])

    repair_log(classify_log(path, deep=True), workdir / QUARANTINE_DIR)

    # the crash landed between boundary k and k+1: exactly epochs 0..k-1
    # survive, as the byte-identical prefix of the original log
    k = max(i for i, b in enumerate(boundaries) if b <= cut)
    if k == 0:
        assert not path.exists()  # nothing committed: quarantined whole
        return
    assert path.read_bytes() == data[: boundaries[k]]
    assert classify_log(path, deep=True).kind == KIND_CLEAN
    with LogReader(path) as reader:
        recovered = tuple(reader.entries)
    expected = tuple(e for epoch in entries_per_epoch[:k] for e in epoch)
    assert recovered == expected  # a prefix — never a superset


@settings(
    max_examples=24,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    flip_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_any_bitflip_never_yields_a_superset(tmp_path, seed, flip_fraction):
    workdir = _fresh_dir(tmp_path / f"flip-{seed}-{flip_fraction}")
    path, data, boundaries, entries_per_epoch = _build_reference_log(
        workdir, seed
    )
    offset = int(len(data) * flip_fraction)
    path.write_bytes(
        data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1 :]
    )

    repair_log(classify_log(path, deep=True), workdir / QUARANTINE_DIR)

    all_entries = [e for epoch in entries_per_epoch for e in epoch]
    if not path.exists():
        return  # the flip destroyed every commit point: empty prefix
    diag = classify_log(path, deep=True)
    # either fully repaired to a clean epoch prefix, or the flip landed
    # inside a committed SST (unrepairable, chain intact)
    assert diag.kind in (KIND_CLEAN, KIND_CORRUPT_SST)
    assert len(path.read_bytes()) in boundaries
    with LogReader(path) as reader:
        recovered = list(reader.entries)
    assert len(recovered) <= len(all_entries)
    for got, want in zip(recovered, all_entries):
        assert got == want  # entry-by-entry prefix, nothing invented

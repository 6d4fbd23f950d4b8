"""Golden corrupted-log corpus: classification, repair, no byte loss.

Each ``tests/storage/corpus/<name>.bin`` is one hand-broken KoiDB log
(see ``generate.py`` there); ``expected.json`` records the damage
class the recovery scanner must diagnose and the epochs that must
survive.  Repair is additionally held to the R701 discipline: every
byte it takes out of a log must land in ``quarantine/``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.storage.fsck import fsck
from repro.storage.log import QUARANTINE_DIR, LogReader, log_name
from repro.storage.manifest import ManifestCorruptionError
from repro.storage.recovery import (
    KIND_CLEAN,
    KIND_CORRUPT_SST,
    classify_log,
    find_committed_state,
    repair_log,
)

CORPUS_DIR = Path(__file__).parent / "corpus"
EXPECTED = json.loads((CORPUS_DIR / "expected.json").read_text())
CASES = sorted(EXPECTED)


def _install(tmp_path: Path, name: str) -> Path:
    target = tmp_path / log_name(0)
    target.write_bytes((CORPUS_DIR / f"{name}.bin").read_bytes())
    return target


@pytest.mark.parametrize("name", CASES)
def test_classification(tmp_path, name):
    path = _install(tmp_path, name)
    diag = classify_log(path, deep=True)
    assert diag.kind == EXPECTED[name]["kind"]
    assert list(diag.committed_epochs) == EXPECTED[name]["committed_epochs"]


@pytest.mark.parametrize("name", CASES)
def test_repair_preserves_every_byte(tmp_path, name):
    path = _install(tmp_path, name)
    original = path.read_bytes()
    quarantine = tmp_path / QUARANTINE_DIR
    action = repair_log(classify_log(path, deep=True), quarantine)
    assert action.kind == EXPECTED[name]["kind"]

    if action.removed:
        # the whole file moved aside; its bytes are intact in quarantine
        assert not path.exists()
        assert Path(action.quarantine_path).read_bytes() == original
        return
    if action.quarantined_bytes:
        kept = path.read_bytes()
        tail = Path(action.quarantine_path).read_bytes()
        assert kept + tail == original
        assert len(tail) == action.quarantined_bytes
    else:
        # clean or corrupt-committed-sst: repair must not touch the file
        assert path.read_bytes() == original


@pytest.mark.parametrize("name", CASES)
def test_repaired_log_is_consistent(tmp_path, name):
    path = _install(tmp_path, name)
    action = repair_log(classify_log(path, deep=True), tmp_path / QUARANTINE_DIR)
    if action.removed:
        return
    diag = classify_log(path, deep=True)
    if EXPECTED[name]["kind"] == KIND_CORRUPT_SST:
        assert diag.kind == KIND_CORRUPT_SST  # inside the durable prefix
        return
    assert diag.kind == KIND_CLEAN
    with LogReader(path) as reader:
        epochs = sorted({e.epoch for e in reader.entries})
    assert epochs == EXPECTED[name]["committed_epochs"]


@pytest.mark.parametrize("name", CASES)
def test_reader_recover_matches_expected_epochs(tmp_path, name):
    path = _install(tmp_path, name)
    committed = EXPECTED[name]["committed_epochs"]
    size = path.stat().st_size
    with open(path, "rb") as fh:
        state = find_committed_state(fh, size, path)
    if not committed:
        assert state is None
        with pytest.raises(ManifestCorruptionError):
            LogReader(path)
        return
    with LogReader(path, pin=state) as reader:
        assert sorted({e.epoch for e in reader.entries}) == committed
    if EXPECTED[name]["kind"] in (KIND_CLEAN, KIND_CORRUPT_SST):
        # damage (if any) is inside the committed prefix; the
        # commit point is still end-of-file
        assert size - state.footer_end == 0
    else:
        assert size - state.footer_end > 0


@pytest.mark.parametrize(
    "name", [n for n in CASES if EXPECTED[n]["committed_epochs"]]
)
def test_plain_fsck_checks_committed_prefix(tmp_path, name):
    """Plain fsck verifies the committed epochs in front of any tail."""
    path = _install(tmp_path, name)
    kind = EXPECTED[name]["kind"]
    state = classify_log(path).state
    report = fsck(tmp_path)
    assert report.logs_checked == 1
    assert sorted(report.epochs) == EXPECTED[name]["committed_epochs"]
    assert report.ssts_checked == len(state.entries)
    counts = [e.count for e in state.entries]
    if kind == KIND_CORRUPT_SST:
        # the corrupt SST's records cannot be read, every other one is
        assert report.records_checked in (sum(counts) - c for c in counts)
        assert any("corrupt SST" in e for e in report.errors)
        return
    assert report.records_checked == sum(counts) > 0
    if kind == KIND_CLEAN:
        assert report.ok, report.errors
    else:
        # the tail is the one error, and it names its kind
        assert len(report.errors) == 1
        assert report.errors[0].startswith(f"{log_name(0)}: {kind}: ")
        # --recover accepts the tail and still checks the prefix
        recovered = fsck(tmp_path, recover=True)
        assert recovered.ok, recovered.errors
        assert recovered.records_checked == report.records_checked


@pytest.mark.parametrize("name", CASES)
def test_fsck_repair_round_trip(tmp_path, name):
    _install(tmp_path, name)
    report = fsck(tmp_path, deep=True, repair=True)
    committed = EXPECTED[name]["committed_epochs"]
    kind = EXPECTED[name]["kind"]
    assert report.classifications == {log_name(0): kind}
    if kind == KIND_CORRUPT_SST:
        assert not report.ok  # unrepairable: inside the committed prefix
        return
    if not committed:
        # nothing durable: the log was quarantined whole and the
        # directory is now (correctly) log-free
        assert [e for e in report.errors if "no KoiDB logs" in e]
        return
    assert report.ok, report.errors
    assert sorted(report.epochs) == committed
    if kind != KIND_CLEAN:
        assert report.repaired
        assert report.errors_before


def test_corpus_matches_generator(tmp_path):
    """The checked-in corpus is exactly what generate.py produces."""
    sys.path.insert(0, str(CORPUS_DIR))
    try:
        from generate import build_cases
    finally:
        sys.path.pop(0)
    cases = build_cases(tmp_path)
    assert sorted(cases) == CASES
    for name, (blob, meta) in cases.items():
        assert (CORPUS_DIR / f"{name}.bin").read_bytes() == blob, name
        assert EXPECTED[name] == meta


@pytest.mark.parametrize("name", CASES)
def test_eof_footer_first_finds_what_the_scan_finds(tmp_path, name):
    """Trying the footer at EOF first is only a shortcut: every corpus
    case commits at exactly the state the full backward scan finds."""
    from repro.storage.recovery import _scan_footers

    path = _install(tmp_path, name)
    size = path.stat().st_size
    with open(path, "rb") as fh:
        fast = find_committed_state(fh, size, path)
        scanned = _scan_footers(fh, size, path)
    assert fast == scanned


class _ReadSpy:
    """A file wrapper recording the size of every ``read``."""

    def __init__(self, fh):
        self._fh = fh
        self.sizes: list[int] = []

    def read(self, n=-1):
        data = self._fh.read(n)
        self.sizes.append(len(data))
        return data

    def seek(self, *args):
        return self._fh.seek(*args)


def test_clean_log_pins_without_a_window_scan(tmp_path, monkeypatch):
    """On a clean log the commit point is the footer at EOF: no read of a
    scan window's size, however small the window."""
    from repro.storage import recovery

    monkeypatch.setattr(recovery, "SCAN_WINDOW", 256)
    path = _install(tmp_path, "clean")
    size = path.stat().st_size
    with open(path, "rb") as fh:
        spy = _ReadSpy(fh)
        state = find_committed_state(spy, size, path)
    assert state is not None and state.footer_end == size
    assert list(state.epochs) == EXPECTED["clean"]["committed_epochs"]
    # the footer, then the manifest chain: a small share of the file
    assert 256 not in spy.sizes
    assert sum(spy.sizes) < size / 4
    # a torn tail still falls back to the scan
    torn = _install(tmp_path, "garbage-tail")
    with open(torn, "rb") as fh:
        spy = _ReadSpy(fh)
        state = find_committed_state(spy, torn.stat().st_size, torn)
    assert state is not None and 256 in spy.sizes

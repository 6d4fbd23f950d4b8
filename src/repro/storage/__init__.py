"""KoiDB storage backend: blocks, SSTables, manifests, logs, compaction."""

from repro.storage.blocks import BlockCorruptionError
from repro.storage.compactor import (
    compact_all_epochs,
    compact_epoch,
    sorted_sst_boundaries,
)
from repro.storage.fsck import FsckReport, fsck
from repro.storage.koidb import KoiDB, KoiDBStats
from repro.storage.log import LogReader, LogWriter, list_logs, log_name, log_rank
from repro.storage.manifest import ManifestEntry, ManifestError
from repro.storage.memtable import Memtable
from repro.storage.snapshot import LogPin, Snapshot, pin_snapshot
from repro.storage.sstable import (
    FLAG_SORTED,
    FLAG_STRAY,
    SSTableInfo,
    build_sstable,
    parse_header,
    parse_keys_only,
    parse_sstable,
)

__all__ = [
    "BlockCorruptionError", "compact_all_epochs", "compact_epoch",
    "sorted_sst_boundaries", "FsckReport", "fsck", "KoiDB", "KoiDBStats", "LogReader", "LogWriter",
    "list_logs", "log_name", "log_rank", "ManifestEntry", "ManifestError",
    "Memtable", "LogPin", "Snapshot", "pin_snapshot",
    "FLAG_SORTED", "FLAG_STRAY", "SSTableInfo",
    "build_sstable", "parse_header", "parse_keys_only", "parse_sstable",
]

"""``carp range-reader`` — analyze and query partitioned output (artifact A5).

Mirrors the paper artifact's CLI:

* ``-a`` analyzes the store (per-probe selectivity statistics),
* ``-q -e EPOCH -x LO -y HI`` runs a single range query,
* ``-b BATCH.csv`` runs a query batch (``epoch,query_begin,query_end``
  rows) and writes a per-query ``querylog.csv``.

Works identically against CARP output and compactor (sorted) output.

Examples::

    carp range-reader -i /tmp/carp-out -a
    carp range-reader -i /tmp/carp-out -q -e 0 -x 16 -y 64
    carp range-reader -i /tmp/carp-out -b batch.csv --querylog qlog.csv
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.query.engine import PartitionedStore
from repro.query.reader import analyze_store, read_batch_csv, run_batch
from repro.query.request import LIVE_TOKEN, QueryRequest, response_from_result
from repro.storage.blocks import BlockCorruptionError
from repro.storage.manifest import ManifestError


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-i", "--input", required=True, type=Path,
                   help="partitioned output directory")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("-a", "--analyze", action="store_true",
                      help="analysis mode: store statistics + selectivity")
    mode.add_argument("-q", "--query", action="store_true",
                      help="query mode: one range query (-e/-x/-y)")
    mode.add_argument("-b", "--batch", type=Path,
                      help="batch mode: CSV of epoch,query_begin,query_end")
    p.add_argument("-e", "--epoch", type=int, default=None,
                   help="epoch to query/analyze")
    p.add_argument("-x", "--query-begin", type=float, default=None)
    p.add_argument("-y", "--query-end", type=float, default=None)
    p.add_argument("--querylog", type=Path, default=Path("querylog.csv"),
                   help="batch-mode per-query log (default: querylog.csv)")


def _analyze(store: PartitionedStore, epoch: int | None) -> int:
    analysis = analyze_store(store, epoch=epoch)
    print(f"epochs: {list(analysis.epochs)}")
    print(f"records: {analysis.total_records}  bytes: {analysis.total_bytes}"
          f"  SSTs: {analysis.ssts}")
    print("point selectivity at keyspace probes:")
    for key, sel in zip(analysis.probe_keys, analysis.probe_selectivity):
        print(f"  key {key:12.6g}: {sel:.2%}")
    print(f"median selectivity: {analysis.median_selectivity:.2%}")
    return 0


def _query(store: PartitionedStore, epoch: int | None, lo: float | None,
           hi: float | None) -> int:
    if epoch is None or lo is None or hi is None:
        print("error: query mode needs -e, -x and -y", file=sys.stderr)
        return 2
    store.resolve_epoch(epoch)
    res = response_from_result(QueryRequest(lo=lo, hi=hi, epoch=epoch), "",
                               LIVE_TOKEN, store.query(epoch, lo, hi))
    c = res.cost
    print(f"matched {len(res)} records in [{lo}, {hi}] (epoch {epoch})")
    print(f"SSTs read: {c.ssts_read}/{c.ssts_considered}  "
          f"bytes: {c.bytes_read}  requests: {c.read_requests}")
    print(f"modeled latency: {c.latency * 1e3:.3f} ms "
          f"(read {c.read_time * 1e3:.3f} + merge {c.merge_time * 1e3:.3f})")
    return 0


def _batch(store: PartitionedStore, batch_path: Path, log_path: Path) -> int:
    queries = read_batch_csv(batch_path)
    result = run_batch(store, queries, log_path=log_path)
    print(f"ran {len(queries)} queries: matched {result.total_matched} "
          f"records, read {result.total_bytes_read} bytes, "
          f"total modeled latency {result.total_latency:.3f} s")
    print(f"per-query log written to {log_path}")
    return 0


def run(args: argparse.Namespace) -> int:
    try:
        with PartitionedStore(args.input) as store:
            if args.analyze:
                return _analyze(store, args.epoch)
            if args.query:
                return _query(store, args.epoch, args.query_begin,
                              args.query_end)
            return _batch(store, args.batch, args.querylog)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ManifestError, BlockCorruptionError) as exc:
        # a torn or damaged log: the strict open refuses it
        print(f"error: {exc} (see carp fsck)", file=sys.stderr)
        return 2

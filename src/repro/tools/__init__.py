"""The ``carp`` subcommands (dispatched by :mod:`repro.cli`).

Each module here exports ``add_arguments(parser)`` and
``run(args) -> int``; :mod:`repro.cli` builds one parser from them.
The paper artifact's ingest and compaction steps (A3, A4) are library
calls (:class:`~repro.core.carp.CarpRun`,
:func:`~repro.storage.compactor.compact_all_epochs`); its query client
(A5) is ``carp range-reader -a`` plus ``carp explain``.

Two conventions every subcommand shares, through the helpers below: a
directory it writes is ``-o/--out DIR``, and a report document it
writes is ``--json PATH``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any


def add_out_dir(parser: argparse.ArgumentParser, help: str, *,
                required: bool = False) -> None:
    """Add the output-directory option, spelled ``-o/--out DIR``."""
    parser.add_argument("-o", "--out", type=Path, required=required,
                        metavar="DIR", help=help)


def add_json_report(parser: argparse.ArgumentParser, help: str) -> None:
    """Add the report-document option, spelled ``--json PATH``."""
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help=help)


def write_json_report(path: Path, doc: Any, label: str = "report") -> None:
    """Write ``doc`` as canonical JSON (sorted keys) and say where."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"{label}: {path}")

"""Fixture: every O504 shape — sinks and clocks grabbed eagerly.

Telemetry/export code must take its clock and output sink by
injection (the ``TelemetryStream(metrics, clock, sink)`` shape);
acquiring either at import time or inside a constructor hard-wires
the host environment into the recording.
"""
# carp-lint: disable=O501

import time
from pathlib import Path

LOG = open("telemetry.jsonl", "a")  # O504: module-scope sink
STARTED = time.time()  # O504: module-scope wall clock


class EagerExporter:
    BANNER = Path("banner.txt").read_text()  # O504: class body runs at import

    def __init__(self, path):
        self.sink = open(path, "a")  # O504: constructor-scope sink
        self.t0 = time.monotonic()  # O504: constructor-scope clock

    def write(self, doc):
        # ok: a method body is an explicit persist call, not wiring
        self.sink.write(doc)


def make_sink(path):
    # ok: plain function bodies may open — they run on demand
    return open(path, "a")


FACTORY = lambda p: open(p, "a")  # noqa: E731  # ok: lambda body is deferred

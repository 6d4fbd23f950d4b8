"""Fixture: the D-rule violation, plus the wall-clock reads O501 bans
in the same scope.

Outside any ``repro`` package the module path is unknown, which
carp-lint treats as in-scope — exactly what lets this corpus exercise
the scoped rules.
"""

import time  # O501
from datetime import datetime  # O501


def wall_clock_timestamp():
    started = time.time()  # O501
    now = datetime.now()  # O501
    return started, now


def salted_bucket(key, nbuckets):
    return hash(key) % nbuckets  # D104


def stable_bucket(key, nbuckets):
    # a stable hash must NOT be flagged
    import zlib

    return zlib.crc32(key.encode()) % nbuckets

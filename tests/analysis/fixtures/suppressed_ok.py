"""Fixture: violations silenced by per-file suppressions."""
# carp-lint: disable=O501,D104

import time


def timed_bucket(key):
    return time.time(), hash(key)  # both suppressed file-wide

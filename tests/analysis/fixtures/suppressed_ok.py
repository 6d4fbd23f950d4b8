"""Fixture: violations silenced by per-file suppressions."""
# carp-lint: disable=O501,D103

import random
import time


def timed_draw():
    return time.time(), random.random()  # both suppressed file-wide

"""Fixture: every D-rule violation in one file, plus the wall-clock
reads O501 bans in the same scope.

Outside any ``repro`` package the module path is unknown, which
carp-lint treats as in-scope — exactly what lets this corpus exercise
the scoped rules.
"""

import random
import time  # O501
from datetime import datetime  # O501

import numpy as np


def wall_clock_timestamp():
    started = time.time()  # O501
    now = datetime.now()  # O501
    return started, now


def unseeded_generators():
    gen = np.random.default_rng()  # D102
    legacy = random.Random()  # D102
    return gen, legacy


def global_state_draws(n):
    a = random.random()  # D103
    b = np.random.rand(n)  # D103
    np.random.shuffle(b)  # D103
    return a, b


def salted_bucket(key, nbuckets):
    return hash(key) % nbuckets  # D104


def seeded_is_fine(seed):
    # properly seeded RNGs must NOT be flagged
    gen = np.random.default_rng(seed)
    kw = np.random.default_rng(seed=seed)
    return gen, kw

"""Fixture: every P-rule violation in one file, plus the worker-side
recording stacks O502 bans in ``repro.exec``.

Outside any ``repro`` package the module path is unknown, which
carp-lint treats as in-scope — exactly what lets this corpus exercise
the scoped rules.
"""

from collections import deque

from repro.obs import Obs, VirtualClock

CACHE = {}  # P601
pending: list = []  # P601 (annotated assignment)
RECENT = deque()  # P601 (mutable constructor call)
SEEN = set(x for x in range(4))  # P601 (comprehension)

WORKERS = 4  # fine: immutable
KINDS = ("serial", "thread")  # fine: tuple

__all__ = ["task_with_global"]  # fine: dunder metadata


def task_with_global(state, shard):
    global CACHE  # P601
    CACHE[shard] = state
    return shard


def task_builds_recording_obs(state, shard):
    obs = Obs.recording()  # O502
    clock = VirtualClock()  # O502
    return obs, clock, shard


def task_uses_state_correctly(state, shard):
    # the sanctioned pattern: mutable state lives in the per-shard dict
    state.setdefault("count", 0)
    state["count"] += 1
    return state["count"]

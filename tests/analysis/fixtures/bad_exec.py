"""Fixture: the recording stacks O502 bans in ``repro.exec``.

Outside any ``repro`` package the module path is unknown, which
carp-lint treats as in-scope — exactly what lets this corpus exercise
the scoped rules.
"""

from repro.obs import Obs, VirtualClock


def task_builds_recording_obs(shard):
    obs = Obs.recording()  # O502
    clock = VirtualClock()  # O502
    return obs, clock, shard


def task_uses_deltas_stack(shard):
    # not flagged: a worker-local stack whose registry stays private
    return Obs.deltas(), shard

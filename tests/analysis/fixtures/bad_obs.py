"""Fixture: every O-rule violation in one file.

Outside any ``repro`` package the module path is unknown, which
carp-lint treats as in-scope — exactly what lets this corpus exercise
the scoped rules.
"""

import time
from datetime import datetime

from repro.obs import ChromeTracer, MetricsRegistry, Obs, VirtualClock


def stamp_with_host_clock():
    started = time.perf_counter()  # O501 (import already flagged too)
    when = datetime.now()  # O501
    return started, when


def data_plane_builds_its_own_stack():
    clock = VirtualClock()  # O502
    tracer = ChromeTracer()  # O502
    metrics = MetricsRegistry()  # O502
    return Obs(clock, metrics, tracer)  # O502


def recording_classmethod():
    return Obs.recording()  # O502


def dynamic_instrument_names(obs, rank):
    obs.metrics.counter("koidb.bytes.r" + str(rank)).add(1)  # O503
    obs.metrics.gauge(f"occupancy.r{rank}").set(0.5)  # O503
    track = obs.track("flush", "rank 0")
    obs.tracer.complete(track, "phase {}".format(rank), 0.0, 1.0)  # O503


def injected_is_fine(obs):
    # accepting an injected stack must NOT be flagged
    obs.metrics.counter("ok").add(1)
    # a static name and a variable holding one must NOT be flagged
    name = "koidb.flushes"
    obs.metrics.counter(name).add(1)
    obs.tracer.instant(obs.track("flush", "rank 0"), "flush", 0.0)
    return obs.clock.now()

"""Fixture: every O505 shape — live observability in a profile builder.

Profile builders fold *archived artifacts* (decoded ``trace.json``
events and ``metrics.json`` snapshots); importing the live stack,
borrowing a recording ``Obs``, or taking one as a parameter wires the
profile to a run and breaks bit-identical replay.
"""
# carp-lint: disable=O501,O502

import repro.obs.tracer  # O505: live-stack import

from repro.obs import Obs  # O505: live-stack import


def fold_live(obs, events):  # O505: `obs` parameter injects a live stack
    stack = Obs.recording()  # O505: recording-stack construction
    for event in events:
        stack.metrics.counter("profile.events").add(1)
    return {"events": len(events), "obs": obs}


def fold_typed(events, source: "Obs"):  # O505: Obs-annotated parameter
    return {"events": len(events), "source": source}

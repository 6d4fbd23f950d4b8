"""Fixture: every L-family rule must fire on this file.

Leaked handles: an early return that skips close, a class that can
never release its handle, and an orphan ``open(...).read()`` — with
closed/context-managed counterparts proving the clean shapes stay
quiet.
"""
# O504 is the obs-package sink-injection rule; these constructors open
# files on purpose to exercise the L-family, not to model telemetry.
# carp-lint: disable=O504


def leak_on_early_return(path, check):
    fh = open(path, "rb")  # L1001: open at exit via the early return
    if check:
        return None
    data = fh.read()
    fh.close()
    return data


class HoldsForever:
    def __init__(self, path):
        self.fh = open(path, "rb")  # L1002: no close()/__exit__


def orphan_read(path):
    return open(path, "rb").read()  # L1003: nothing can close this


def closed_on_every_path(path, check):
    # ok: the finally closes on the early return and the fall-through
    fh = open(path, "rb")
    try:
        if check:
            return None
        return fh.read()
    finally:
        fh.close()


def context_managed(path):
    # ok: with-managed handles never leak
    with open(path, "rb") as fh:
        return fh.read()


class ClosesProperly:
    # ok: the resource attribute has a release path
    def __init__(self, path):
        self.fh = open(path, "rb")

    def close(self):
        self.fh.close()

"""``repro.faults`` — deterministic, seeded fault injection.

CARP's durability story (paper §V-A: data is durable at checkpoint-
epoch granularity, a torn epoch simply disappears) is only testable if
crashes can be *produced on demand, reproducibly*.  This package is
that switchboard: a :class:`FaultPlan` is a seeded, immutable list of
:class:`FaultSpec` records naming *where* (a fault site), *when* (the
n-th occurrence of that site) and *how* (cut fraction, delay, drop) a
fault fires.  Subsystems that host a fault site consult a
:class:`FaultInjector` built from the plan; with no plan the check is
a single ``is None`` branch, so production paths stay zero-overhead.

Fault sites (see ``docs/FAULTS.md``):

* ``storage.sst_write`` — a torn/partial SSTable append in
  :class:`repro.storage.log.LogWriter`,
* ``storage.manifest_write`` — a torn manifest block + footer at epoch
  flush,
* ``shuffle.send`` — a delayed or dropped shuffle send in
  :class:`repro.shuffle.flow.DelayQueue`; its n-th occurrence is the
  n-th message, one per (routing pass, destination).

Everything is driven by ``np.random.default_rng(seed)``; the same seed
always yields the same plan, and each injector's per-site occurrence
counters advance with its host's own event stream (a rank's storage
writes, the driver's shuffle messages), so a plan fires at the same
points on every run.
"""

from __future__ import annotations

from repro.faults.plan import (
    SITE_MANIFEST_WRITE,
    SITE_SHUFFLE_SEND,
    SITE_SST_WRITE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
)

__all__ = [
    "SITE_MANIFEST_WRITE",
    "SITE_SHUFFLE_SEND",
    "SITE_SST_WRITE",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrashError",
]

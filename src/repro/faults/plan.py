"""Fault plans and the runtime injector.

A :class:`FaultPlan` is pure data — frozen, picklable, serializable to
JSON — so the same plan object can travel into a repro bundle
unchanged.  The runtime half, :class:`FaultInjector`, holds the only
mutable state: one occurrence counter per site.  Each host subsystem
owns its own injector (one per KoiDB for the storage sites, one in the
driver for the shuffle site), so counters advance with the rank-local
event stream.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.obs import Obs

#: A torn/partial SSTable append (``LogWriter.append_batch``).
SITE_SST_WRITE = "storage.sst_write"
#: A torn manifest block + footer at epoch flush (``LogWriter.flush_epoch``).
SITE_MANIFEST_WRITE = "storage.manifest_write"
#: A delayed or dropped shuffle send (``CarpRun._send``).  Occurrences
#: count shuffle messages, one per (routing pass, destination).
SITE_SHUFFLE_SEND = "shuffle.send"

#: Sites whose fault is scoped to one receiver rank.
RANK_SITES = (SITE_SST_WRITE, SITE_MANIFEST_WRITE)
#: Every known fault site.
ALL_SITES = RANK_SITES + (SITE_SHUFFLE_SEND,)

#: Upper bound, per epoch, of the ``shuffle.send`` indices
#: :meth:`FaultPlan.generate` draws: at most the messages one chaos
#: workload epoch sends (see ``repro.faults.chaos``), so every drawn
#: spec fires.
SHUFFLE_SENDS_PER_EPOCH = 15

#: Spec actions: ``crash`` kills the write; ``delay``/``drop``
#: apply to the shuffle site only.
ACTION_CRASH = "crash"
ACTION_DELAY = "delay"
ACTION_DROP = "drop"


class InjectedCrashError(RuntimeError):
    """A fault plan killed a write mid-flight (simulated process death).

    Raised *after* the partial payload bytes reach the file, so the
    on-disk state is exactly what a real ``kill -9`` between ``write``
    and the epoch footer would leave behind.
    """

    def __init__(self, site: str, rank: int, index: int, detail: str) -> None:
        self.site = site
        self.rank = rank
        self.index = index
        super().__init__(
            f"injected crash at {site}[{index}] on rank {rank}: {detail}"
        )


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: where, when, and how.

    ``index`` counts occurrences of ``site`` within the owning
    injector (0-based; ``shuffle.send`` counts messages, one per
    routing pass and destination); ``arg`` is the cut fraction for
    storage sites (how much of the payload reaches the file before the
    crash) and the extra delivery delay in rounds for ``delay`` shuffle
    faults.
    """

    site: str
    rank: int
    index: int
    arg: float = 0.5
    action: str = ACTION_CRASH

    def __post_init__(self) -> None:
        if self.site not in ALL_SITES:
            raise ValueError(f"unknown fault site {self.site!r}")
        if self.action not in (ACTION_CRASH, ACTION_DELAY, ACTION_DROP):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.index < 0:
            raise ValueError("fault index must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable set of fault specs for one run."""

    seed: int
    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def generate(
        cls,
        seed: int,
        nranks: int,
        max_faults: int = 3,
        epochs: int = 2,
        sites: Sequence[str] | None = None,
    ) -> "FaultPlan":
        """Sample a plan from a seed (same seed, same plan).

        Indices are drawn from ranges sized to a small chaos workload;
        a spec whose index exceeds the run's actual occurrence count
        simply never fires, which is a legal (empty) fault plan.
        """
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        rng = np.random.default_rng(seed)
        pool = tuple(sites) if sites is not None else ALL_SITES
        n = int(rng.integers(1, max_faults + 1))
        specs: list[FaultSpec] = []
        # injectors key specs by (site, index) — shuffle specs share one
        # driver injector, rank sites get one injector per rank — so a
        # duplicate key would be rejected at runtime; skip it here
        used: set[tuple[object, ...]] = set()
        for _ in range(n):
            site = pool[int(rng.integers(0, len(pool)))]
            rank = int(rng.integers(0, nranks))
            if site == SITE_MANIFEST_WRITE:
                index = int(rng.integers(0, max(epochs, 1)))
            elif site == SITE_SST_WRITE:
                index = int(rng.integers(0, 4 * max(epochs, 1)))
            else:
                index = int(rng.integers(0, SHUFFLE_SENDS_PER_EPOCH * max(epochs, 1)))
            if site == SITE_SHUFFLE_SEND:
                action = ACTION_DROP if rng.random() < 0.5 else ACTION_DELAY
                arg = float(rng.integers(1, 4))
            else:
                action = ACTION_CRASH
                arg = float(rng.uniform(0.0, 1.0))
            key = (
                (site, index)
                if site == SITE_SHUFFLE_SEND
                else (site, rank, index)
            )
            if key in used:
                continue
            used.add(key)
            specs.append(FaultSpec(site, rank, index, arg, action))
        return cls(seed=seed, specs=tuple(specs))

    # ------------------------------------------------------------ slicing

    def only(self, *sites: str) -> "FaultPlan":
        """A copy restricted to the given sites (reference-run helper)."""
        return FaultPlan(
            self.seed, tuple(s for s in self.specs if s.site in sites)
        )

    def without(self, *sites: str) -> "FaultPlan":
        """A copy with the given sites removed."""
        return FaultPlan(
            self.seed, tuple(s for s in self.specs if s.site not in sites)
        )

    def specs_for_rank(self, rank: int) -> tuple[FaultSpec, ...]:
        """Rank-scoped specs (the storage sites) for one receiver."""
        return tuple(
            s for s in self.specs if s.site in RANK_SITES and s.rank == rank
        )

    def shuffle_specs(self) -> tuple[FaultSpec, ...]:
        """Fabric-wide specs (the shuffle send site)."""
        return tuple(s for s in self.specs if s.site == SITE_SHUFFLE_SEND)

    # ------------------------------------------------------ serialization

    def to_json(self) -> str:
        """Serialize for repro bundles (``from_json`` round-trips)."""
        return json.dumps(
            {"seed": self.seed, "specs": [asdict(s) for s in self.specs]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        doc = json.loads(text)
        return cls(
            seed=int(doc["seed"]),
            specs=tuple(FaultSpec(**spec) for spec in doc["specs"]),
        )


class FaultInjector:
    """Runtime fault lookup: per-site occurrence counters over a plan.

    ``check(site)`` advances the site's counter and returns the spec
    planned for that occurrence, or ``None``.  When built with an
    ``obs`` stack, fired faults are stamped onto the virtual timeline
    as instant events on a dedicated ``faults`` track and counted in
    static-named counters — both no-ops under ``NULL_OBS``.
    """

    def __init__(
        self, specs: Sequence[FaultSpec], obs: "Obs | None" = None
    ) -> None:
        from repro.obs import NULL_OBS

        self._by_key: dict[tuple[str, int], FaultSpec] = {}
        for spec in specs:
            key = (spec.site, spec.index)
            if key in self._by_key:
                raise ValueError(
                    f"duplicate fault spec for {spec.site}[{spec.index}]"
                )
            self._by_key[key] = spec
        self._counts: dict[str, int] = {}
        self.fired: list[FaultSpec] = []
        self._obs = obs if obs is not None else NULL_OBS
        self._obs_on = self._obs.enabled and bool(self._by_key)
        if self._obs_on:
            self._track = self._obs.track("faults", "injector")
            metrics = self._obs.metrics
            self._counters = {
                SITE_SST_WRITE: metrics.counter("faults.sst_write_crashes"),
                SITE_MANIFEST_WRITE: metrics.counter(
                    "faults.manifest_write_crashes"
                ),
                ACTION_DELAY: metrics.counter("faults.shuffle_delayed"),
                ACTION_DROP: metrics.counter("faults.shuffle_dropped"),
            }

    def occurrences(self, site: str) -> int:
        """How many times ``site`` has been checked so far."""
        return self._counts.get(site, 0)

    def check(self, site: str) -> FaultSpec | None:
        """Advance ``site``'s counter; return the fault due now, if any."""
        index = self._counts.get(site, 0)
        self._counts[site] = index + 1
        spec = self._by_key.get((site, index))
        if spec is None:
            return None
        self.fired.append(spec)
        if self._obs_on:
            key = spec.action if site == SITE_SHUFFLE_SEND else site
            counter = self._counters.get(key)
            if counter is not None:
                counter.add(1)
            self._obs.tracer.instant(
                self._track,
                "fault",
                self._obs.clock.now(),
                {
                    "site": site,
                    "rank": spec.rank,
                    "index": index,
                    "action": spec.action,
                },
            )
        return spec

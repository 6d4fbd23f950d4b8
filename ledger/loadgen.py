"""Seeded inputs and the oracle that checks the program's answers.

The program under test sees only the ``RecordBatch`` streams and the
``QueryRequest`` objects built here.  The same ``(seed, scale)`` always
gives the same inputs.
"""

from __future__ import annotations

import numpy as np

from repro.core.records import RecordBatch
from repro.query.request import QueryRequest, QueryResponse
from repro.traces.vpic import VpicTraceSpec, generate_timestep
from repro.workloads.queries import query_for_selectivity

from ledger.spec import Scale

#: Keys the quantile search of ``query_for_selectivity`` looks at.  It
#: partitions its input on every call; a systematic sample of the sorted
#: keys keeps building a few thousand ranges inside the set-up budget and
#: moves a bound by at most ``epoch_records / QUANTILE_POINTS`` records.
QUANTILE_POINTS = 65536

#: What a threaded client keeps of a response, to be checked after the
#: threads have joined: (status, epoch, lo, hi, matched, first key, last
#: key, float64 key sum, wrapping rid sum).
Digest = tuple[str, int, float, float, int, float, float, float, int]


class Oracle:
    """Brute-force truth over the generated epochs.

    Keys are widened **exactly** to float64 before any comparison: that
    is the engine's documented comparison (``repro.core.records.range_mask``),
    and a float32 oracle mis-counts keys that sit on a query bound.
    """

    def __init__(self, epochs: list[list[RecordBatch]]) -> None:
        self.keys: list[np.ndarray] = []  # per epoch, ascending float64
        self._rids: list[np.ndarray] = []  # per epoch, in the same (stable) order
        self._rid_csum: list[np.ndarray] = []
        for streams in epochs:
            keys = np.concatenate([b.keys for b in streams])
            rids = np.concatenate([b.rids for b in streams])
            order = np.argsort(keys, kind="stable")
            self.keys.append(keys[order].astype(np.float64))
            self._rids.append(rids[order])
            csum = np.zeros(len(rids) + 1, dtype=np.uint64)
            np.cumsum(rids[order], dtype=np.uint64, out=csum[1:])  # wraps mod 2**64
            self._rid_csum.append(csum)

    def span(self, epoch: int, lo: float, hi: float) -> tuple[int, int]:
        keys = self.keys[epoch]
        return (
            int(np.searchsorted(keys, lo, side="left")),
            int(np.searchsorted(keys, hi, side="right")),
        )

    def _rid_sum(self, epoch: int, i0: int, i1: int) -> int:
        csum = self._rid_csum[epoch]
        return (int(csum[i1]) - int(csum[i0])) % 2**64  # the sums wrap, so wrap the difference

    def check_response(self, response: QueryResponse) -> str | None:
        """Why ``response`` is wrong, or None when it is right."""
        request = response.request
        if not response.ok:
            return f"status {response.status}: {response.detail}"
        if request.epoch is not None and response.epoch != request.epoch:
            return f"answered epoch {response.epoch}, asked {request.epoch}"
        if not 0 <= response.epoch < len(self.keys):
            return f"answered unknown epoch {response.epoch}"
        i0, i1 = self.span(response.epoch, request.lo, request.hi)
        got = response.keys.astype(np.float64)
        if len(got) != i1 - i0:
            return f"{len(got)} keys, oracle counts {i1 - i0}"
        if not np.array_equal(got, self.keys[response.epoch][i0:i1]):
            return "key sequence differs from the oracle's"
        if not request.keys_only:
            rid_sum = int(response.rids.sum(dtype=np.uint64))
            if rid_sum != self._rid_sum(response.epoch, i0, i1):
                return "rid multiset differs from the oracle's"
        return None

    @staticmethod
    def digest(response: QueryResponse) -> Digest:
        """The cheap summary a timed client thread records per response."""
        keys = response.keys
        n = len(keys)
        return (
            response.status,
            response.epoch,
            response.request.lo,
            response.request.hi,
            n,
            float(keys[0]) if n else 0.0,
            float(keys[-1]) if n else 0.0,
            float(keys.astype(np.float64).sum()),
            int(response.rids.sum(dtype=np.uint64)),
        )

    def check_digest(self, digest: Digest, keys_only: bool = False) -> str | None:
        status, epoch, lo, hi, n, first, last, key_sum, rid_sum = digest
        if status != "ok":
            return f"status {status}"
        if not 0 <= epoch < len(self.keys):
            return f"answered unknown epoch {epoch}"
        i0, i1 = self.span(epoch, lo, hi)
        if n != i1 - i0:
            return f"{n} keys, oracle counts {i1 - i0}"
        want = self.keys[epoch][i0:i1]
        if n and (first != want[0] or last != want[-1]):
            return "first/last key differ from the oracle's"
        # same values, same length, same (pairwise) summation: bit-equal
        if key_sum != float(want.sum()):
            return "key sum differs from the oracle's"
        if not keys_only and rid_sum != self._rid_sum(epoch, i0, i1):
            return "rid multiset differs from the oracle's"
        return None

    def check_scan(self, epoch: int, keys: np.ndarray, rids: np.ndarray) -> str | None:
        """A full scan must return the input multiset of (key, rid)."""
        if len(keys) != len(self.keys[epoch]):
            return f"scan of epoch {epoch}: {len(keys)} records, ingested {len(self.keys[epoch])}"
        got = np.lexsort((rids, keys))
        if not np.array_equal(keys[got].astype(np.float64), self.keys[epoch]):
            return f"scan of epoch {epoch}: keys differ from the input"
        # equal keys may come back in any rid order: compare in (key, rid) order
        want = np.lexsort((self._rids[epoch], self.keys[epoch]))
        if not np.array_equal(rids[got], self._rids[epoch][want]):
            return f"scan of epoch {epoch}: rids differ from the input"
        return None


class Load:
    """One seed's trace (three drifting epochs), oracle and query builder."""

    NEPOCHS = 3

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        # three timesteps put trace progress at 0, 0.5 and 1: the key
        # distribution drifts, so every epoch re-bootstraps its partitions
        self.spec = VpicTraceSpec(
            nranks=scale.nranks,
            particles_per_rank=scale.particles_per_rank,
            timesteps=(0, 1, 2),
            seed=seed,
            value_size=56,
        )
        self.epochs = [generate_timestep(self.spec, i) for i in range(self.NEPOCHS)]
        self.oracle = Oracle(self.epochs)
        step = max(1, scale.epoch_records // QUANTILE_POINTS)
        self._quantile_keys = [keys[::step] for keys in self.oracle.keys]

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    @staticmethod
    def anchors(n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` anchors, uniform in [0.02, 0.98], one per equal stratum.

        Stratifying keeps a class's mix of dense-body and sparse-tail
        ranges the same from seed to seed, so a class median moves with
        the program and not with the draw.
        """
        return 0.02 + 0.96 * (np.arange(n) + rng.random(n)) / n

    def request(
        self, epoch_keys: int, selectivity: float, anchor: float,
        epoch: int | None, keys_only: bool = False, client: str = "default",
    ) -> QueryRequest:
        """A range matching ``selectivity`` of epoch ``epoch_keys``'s keys."""
        spec = query_for_selectivity(
            self._quantile_keys[epoch_keys], selectivity, float(anchor)
        )
        return QueryRequest(
            lo=spec.lo, hi=spec.hi, epoch=epoch, keys_only=keys_only, client=client
        )

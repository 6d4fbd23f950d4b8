"""Scalar-vs-vector properties for the vector kernels' fast branches.

Each test draws inputs on both sides of a branch the vector backend
takes for speed, and checks it against the per-record reference
(``tests/kernels/scalar.py``):

* ``route`` counts comparisons for tables of up to
  :data:`~repro.kernels.vector.ROUTE_COMPARE_MAX_BOUNDS` bounds and
  binary-searches longer ones;
* ``group_runs`` sorts destinations as ``int8``/``int16``/``int32`` or
  ``int64``, whichever is narrowest;
* ``encode_values`` gathers filler-template rows as ``uint64`` words
  when ``value_size`` is a multiple of 8, else as ``void`` items.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import OOB_DEST, vector

from tests.kernels import scalar

F32 = np.float32

#: float32 keys the comparison semantics are most likely to get wrong.
SPECIAL_KEYS = np.array(
    [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0,
     np.finfo(F32).smallest_subnormal, -np.finfo(F32).smallest_subnormal,
     np.finfo(F32).max, -np.finfo(F32).max],
    dtype=F32,
)


def _bounds(rng: np.random.Generator, nbounds: int, f32_exact: bool) -> np.ndarray:
    """``nbounds`` strictly increasing float64 bounds, subnormals included."""
    while True:
        raw = rng.standard_normal(nbounds) * rng.choice([1e-40, 1.0, 1e6], nbounds)
        if f32_exact:
            # every bound is a float32 value, so some keys can equal it
            raw = raw.astype(F32).astype(np.float64)
        bounds = np.unique(raw)
        if len(bounds) == nbounds:
            return bounds


def _keys(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    """Keys on, just beside, between and beyond every bound, plus the specials."""
    on = bounds.astype(F32)
    beside = np.concatenate([np.nextafter(on, F32(-np.inf)), np.nextafter(on, F32(np.inf))])
    lo, hi = bounds[0], bounds[-1]
    spread = rng.uniform(lo - (hi - lo), hi + (hi - lo), 3 * len(bounds)).astype(F32)
    keys = np.concatenate([on, beside, spread, SPECIAL_KEYS])
    rng.shuffle(keys)
    return keys


@pytest.mark.parametrize("nbounds", [
    2, 3, 17,
    vector.ROUTE_COMPARE_MAX_BOUNDS - 1,
    vector.ROUTE_COMPARE_MAX_BOUNDS,
    vector.ROUTE_COMPARE_MAX_BOUNDS + 1,
    200,
])
@given(seed=st.integers(0, 2**32 - 1), f32_exact=st.booleans())
@settings(max_examples=15, deadline=None)
def test_route_matches_scalar(nbounds, seed, f32_exact):
    rng = np.random.default_rng(seed)
    bounds = _bounds(rng, nbounds, f32_exact)
    keys = _keys(rng, bounds)
    got = vector.route(bounds, keys)
    assert got.dtype == np.int64
    assert got.tolist() == scalar.route(bounds, keys).tolist()


def _groups(groups: list[tuple[int, np.ndarray]]) -> list[tuple[int, list[int]]]:
    return [(int(d), idx.tolist()) for d, idx in groups]


#: Destination ranges across each narrow-dtype limit, plus int64 extremes.
DEST_RANGES = [
    (OOB_DEST, 16),
    (OOB_DEST, 127),
    (OOB_DEST, 128),
    (-128, 0),
    (-129, 0),
    (-5, 32767),
    (-5, 32768),
    (-32769, -32760),
    (2**31 - 4, 2**31 + 4),
    (-(2**63), -(2**63) + 3),
    (2**63 - 4, 2**63 - 1),
]


@given(
    span=st.sampled_from(DEST_RANGES),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
)
@settings(max_examples=60, deadline=None)
def test_group_runs_matches_scalar(span, seed, n):
    lo, hi = span
    rng = np.random.default_rng(seed)
    dests = rng.integers(lo, hi, n, dtype=np.int64, endpoint=True)
    # pin both ends so the range really crosses the limit under test
    dests[: min(n, 2)] = [lo, hi][: min(n, 2)]
    rng.shuffle(dests)
    assert _groups(vector.group_runs(dests)) == _groups(scalar.group_runs(dests))


@pytest.mark.parametrize("n", [1, 2, 1000])
def test_group_runs_all_oob(n):
    dests = np.full(n, OOB_DEST, dtype=np.int64)
    assert _groups(vector.group_runs(dests)) == [(OOB_DEST, list(range(n)))]
    assert _groups(scalar.group_runs(dests)) == [(OOB_DEST, list(range(n)))]


@pytest.mark.parametrize("n", [0, 1, 600])
@given(value_size=st.integers(8, 72), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_encode_values_matches_scalar(n, value_size, seed):
    rids = np.random.default_rng(seed).integers(
        0, 2**64, n, dtype=np.uint64, endpoint=False
    )
    payload = vector.encode_values(rids, value_size)
    expect = scalar.encode_values(rids, value_size)
    assert len(payload) == n * value_size
    assert bytes(payload) == expect
    assert vector.decode_values(payload, value_size).tolist() == rids.tolist()
    assert vector.filler_matches(payload, rids, value_size)

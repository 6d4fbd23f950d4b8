"""FaultPlan generation, serialization, and injector semantics."""

import pytest

from repro.core.carp import CarpRun
from repro.faults import chaos
from repro.faults.plan import (
    ACTION_CRASH,
    ACTION_DELAY,
    ACTION_DROP,
    ALL_SITES,
    RANK_SITES,
    SHUFFLE_SENDS_PER_EPOCH,
    SITE_MANIFEST_WRITE,
    SITE_SHUFFLE_SEND,
    SITE_SST_WRITE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.obs import Obs


def test_generate_is_deterministic():
    a = FaultPlan.generate(7, nranks=4)
    b = FaultPlan.generate(7, nranks=4)
    assert a == b


def test_different_seeds_differ_somewhere():
    plans = {FaultPlan.generate(s, nranks=4).specs for s in range(20)}
    assert len(plans) > 1


def test_generate_respects_bounds():
    for seed in range(50):
        plan = FaultPlan.generate(seed, nranks=3, max_faults=4, epochs=2)
        assert 1 <= len(plan.specs) <= 4
        for spec in plan.specs:
            assert spec.site in ALL_SITES
            assert 0 <= spec.rank < 3
            assert spec.index >= 0
            if spec.site == SITE_SHUFFLE_SEND:
                assert spec.action in (ACTION_DELAY, ACTION_DROP)
            else:
                assert spec.action == ACTION_CRASH
                assert 0.0 <= spec.arg <= 1.0


def test_generate_never_duplicates_injector_keys():
    # duplicate (site, index) keys would be rejected by FaultInjector
    for seed in range(100):
        plan = FaultPlan.generate(seed, nranks=3, max_faults=6)
        FaultInjector(plan.shuffle_specs())
        for rank in range(3):
            FaultInjector(plan.specs_for_rank(rank))


def test_json_round_trip():
    plan = FaultPlan.generate(11, nranks=3, max_faults=5)
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_site_slicing():
    specs = (
        FaultSpec(SITE_SST_WRITE, 1, 0),
        FaultSpec(SITE_MANIFEST_WRITE, 0, 2),
        FaultSpec(SITE_SHUFFLE_SEND, 0, 5, 2.0, ACTION_DELAY),
    )
    plan = FaultPlan(seed=0, specs=specs)
    assert plan.only(SITE_SHUFFLE_SEND).specs == (specs[2],)
    assert plan.without(SITE_SHUFFLE_SEND).specs == specs[:2]
    assert plan.specs_for_rank(1) == (specs[0],)
    assert plan.specs_for_rank(0) == (specs[1],)
    assert plan.shuffle_specs() == (specs[2],)
    assert all(s.site in RANK_SITES for s in plan.specs_for_rank(0))


def test_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("storage.nonsense", 0, 0)
    with pytest.raises(ValueError):
        FaultSpec(SITE_SST_WRITE, 0, -1)
    with pytest.raises(ValueError):
        FaultSpec(SITE_SST_WRITE, 0, 0, action="explode")


def test_injector_fires_at_exact_occurrence():
    spec = FaultSpec(SITE_MANIFEST_WRITE, 0, 2)
    injector = FaultInjector([spec])
    assert injector.check(SITE_MANIFEST_WRITE) is None  # occurrence 0
    assert injector.check(SITE_MANIFEST_WRITE) is None  # occurrence 1
    assert injector.check(SITE_MANIFEST_WRITE) is spec  # occurrence 2
    assert injector.check(SITE_MANIFEST_WRITE) is None  # past it
    assert injector.occurrences(SITE_MANIFEST_WRITE) == 4
    assert injector.fired == [spec]


def test_injector_counters_are_per_site():
    injector = FaultInjector([FaultSpec(SITE_SST_WRITE, 0, 1)])
    assert injector.check(SITE_MANIFEST_WRITE) is None
    assert injector.check(SITE_SST_WRITE) is None
    assert injector.check(SITE_SST_WRITE) is not None


def test_injector_rejects_duplicate_keys():
    with pytest.raises(ValueError, match="duplicate"):
        FaultInjector(
            [FaultSpec(SITE_SST_WRITE, 0, 1), FaultSpec(SITE_SST_WRITE, 2, 1)]
        )


def test_plan_is_picklable():
    import pickle

    plan = FaultPlan.generate(3, nranks=2)
    assert pickle.loads(pickle.dumps(plan)) == plan


def test_shuffle_send_indices_fit_the_chaos_workload(tmp_path):
    """Every ``shuffle.send`` index the generator draws fires in a chaos run.

    A spec past the run's message count never fires; this keeps a later
    change that sends fewer messages from silently thinning the chaos
    shuffle leg.
    """
    bound = SHUFFLE_SENDS_PER_EPOCH * chaos.CHAOS_EPOCHS
    for seed in range(200):
        plan = FaultPlan.generate(
            seed, chaos.CHAOS_RANKS, max_faults=chaos.CHAOS_MAX_FAULTS,
            epochs=chaos.CHAOS_EPOCHS,
        )
        assert all(spec.index < bound for spec in plan.shuffle_specs())
    for seed in range(40):
        obs = Obs.recording()
        with CarpRun(chaos.CHAOS_RANKS, tmp_path / f"seed{seed}",
                     chaos.CHAOS_OPTIONS, obs=obs) as run:
            for epoch in range(chaos.CHAOS_EPOCHS):
                run.ingest_epoch(epoch, chaos.chaos_streams(seed, epoch))
        assert obs.metrics.counter_value("carp.shuffle_messages") >= bound, seed

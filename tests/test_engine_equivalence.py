"""The event-driven engine is decision-exact against the legacy loop.

The engine replaces the per-cycle ``run_legacy`` loop with event
skipping, vectorized bank state, and per-channel scheduling caches, but
its *decisions* must be identical: every field of :class:`SimResult`
(command counts, per-cycle state histogram, latencies) has to match the
legacy loop exactly on seeded workloads spanning all shipped policies.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.controller import (
    IRAwareDistR,
    IRAwareFCFS,
    IRDropLUT,
    MemoryControllerSim,
    SimConfig,
    StandardJEDEC,
    WorkloadConfig,
    generate_workload,
)
from repro.controller.engine import (
    _FAR,
    BankStateVec,
    EventDrivenEngine,
    OccupancyAccumulator,
)
from repro.dram import TimingParams

SEEDS = (1, 20150607, 999)
POLICIES = ("standard", "ir_fcfs", "ir_distr")


@pytest.fixture(scope="module")
def timing():
    return TimingParams.ddr3_1600()


def _make_policy(name, timing, lut):
    if name == "standard":
        return StandardJEDEC(timing)
    if name == "ir_fcfs":
        return IRAwareFCFS(lut, 24.0)
    return IRAwareDistR(lut, 24.0)


def _run_both(cfg, name, timing, lut, wc):
    legacy = MemoryControllerSim(
        cfg, _make_policy(name, timing, lut), generate_workload(wc), lut
    ).run_legacy()
    event = MemoryControllerSim(
        cfg, _make_policy(name, timing, lut), generate_workload(wc), lut
    ).run()
    return legacy, event


def _assert_identical(legacy, event):
    d_old, d_new = asdict(legacy), asdict(event)
    # Compare field by field for a readable failure.
    for key in d_old:
        assert d_new[key] == d_old[key], f"SimResult.{key} diverged"


class TestDecisionExactness:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_base_config(self, timing, ddr3_lut, seed, policy):
        cfg = SimConfig(timing=timing)
        wc = WorkloadConfig(num_requests=1200, seed=seed)
        _assert_identical(*_run_both(cfg, policy, timing, ddr3_lut, wc))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_refresh_multichannel_writes(self, timing, ddr3_lut, policy):
        cfg = SimConfig(
            timing=timing, refresh_enabled=True, num_channels=2
        )
        wc = WorkloadConfig(num_requests=1200, seed=7, write_fraction=0.2)
        _assert_identical(*_run_both(cfg, policy, timing, ddr3_lut, wc))


class _GenericDistR(IRAwareDistR):
    """DistR with a pass-through ``order`` override: identical decisions,
    but any override sends the engine down its generic path."""

    def order(self, queued, active_counts, is_ready=None):
        return super().order(queued, active_counts, is_ready)


#: (SimConfig overrides, WorkloadConfig overrides) per shape.
DISTR_SHAPES = {
    "one_channel": ({}, {"arrival_interval": 2}),
    "two_channel_refresh_writes": (
        {"num_channels": 2, "refresh_enabled": True},
        {"arrival_interval": 1, "write_fraction": 0.3},
    ),
    "two_channel_capped": (
        {"num_channels": 2, "max_banks_per_channel": 1},
        {"arrival_interval": 1},
    ),
    "hmc_16_channel": (
        {
            "num_dies": 4,
            "banks_per_die": 32,
            "num_channels": 16,
            "max_banks_per_die": 8,
            "max_banks_per_channel": 2,
        },
        {"banks_per_die": 32, "arrival_interval": 1},
    ),
}


class TestDistRFastPath:
    """IRAwareDistR's per-channel fast path makes the decisions of the
    generic policy-ordered scan, request by request."""

    @pytest.mark.parametrize("lut_kind", ("dynamic", "static"))
    @pytest.mark.parametrize("shape", sorted(DISTR_SHAPES))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_generic_path(
        self, timing, ddr3_lut, ddr3_lut_json, seed, shape, lut_kind
    ):
        lut = (
            ddr3_lut
            if lut_kind == "dynamic"
            else IRDropLUT.from_json(ddr3_lut_json)
        )
        cfg_kw, wc_kw = DISTR_SHAPES[shape]
        cfg = SimConfig(timing=timing, **cfg_kw)
        wc = WorkloadConfig(num_requests=1000, seed=seed, **wc_kw)
        fast_wl = generate_workload(wc)
        generic_wl = generate_workload(wc)
        fast = EventDrivenEngine(
            cfg, IRAwareDistR(lut, 24.0), fast_wl, report_lut=lut
        ).run()
        generic = EventDrivenEngine(
            cfg, _GenericDistR(lut, 24.0), generic_wl, report_lut=lut
        ).run()
        assert fast.finished
        _assert_identical(generic, fast)
        assert [(r.issue_cycle, r.complete_cycle) for r in fast_wl] == [
            (r.issue_cycle, r.complete_cycle) for r in generic_wl
        ]


class TestStreamingWorkload:
    def test_generator_input_matches_list(self, timing):
        """A workload consumed as a stream (never materialized) produces
        the same result as the same workload passed as a list."""
        cfg = SimConfig(timing=timing)
        wc = WorkloadConfig(num_requests=800, seed=3)
        as_list = EventDrivenEngine(
            cfg, StandardJEDEC(timing), generate_workload(wc)
        ).run()
        as_stream = EventDrivenEngine(
            cfg, StandardJEDEC(timing), iter(generate_workload(wc))
        ).run()
        assert asdict(as_stream) == asdict(as_list)

    def test_empty_stream(self, timing):
        res = EventDrivenEngine(cfg := SimConfig(timing=timing),
                                StandardJEDEC(timing), iter(())).run()
        assert res.completed == 0
        assert res.finished


class TestBoundedOccupancy:
    def test_cap_diverts_to_dropped(self, timing):
        """With a tiny state cap, overflow cycles land in states_dropped
        and the histogram never exceeds the cap."""
        cfg = SimConfig(timing=timing, max_tracked_states=2)
        wl = generate_workload(WorkloadConfig(num_requests=600, seed=5))
        res = EventDrivenEngine(cfg, StandardJEDEC(timing), wl).run()
        assert len(res.state_occupancy) <= 2
        assert res.states_dropped > 0
        # Total accounted cycles (tracked + dropped) equals the run.
        assert sum(res.state_occupancy.values()) + res.states_dropped == res.cycles

    def test_both_engines_drop_identically(self, timing):
        cfg = SimConfig(timing=timing, max_tracked_states=3)
        wc = WorkloadConfig(num_requests=600, seed=5)
        legacy = MemoryControllerSim(
            cfg, StandardJEDEC(timing), generate_workload(wc)
        ).run_legacy()
        event = MemoryControllerSim(
            cfg, StandardJEDEC(timing), generate_workload(wc)
        ).run()
        assert legacy.states_dropped == event.states_dropped
        assert legacy.state_occupancy == event.state_occupancy

    def test_accumulator_semantics(self):
        acc = OccupancyAccumulator(cap=2)
        acc.add((1, 0), 3)
        acc.add((0, 1), 2)
        acc.add((2, 2), 5)  # third distinct state: over the cap
        acc.add((1, 0), 1)  # already tracked: always accumulates
        assert acc.table == {(1, 0): 4, (0, 1): 2}
        assert acc.dropped == 5


class TestVectorScalarParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_next_event_vector_matches_scalar(self, seed):
        """The masked vector min equals the scalar scan on random bank
        state (the engine switches between them on bank count)."""
        rng = np.random.default_rng(seed)
        n = 64
        vec = BankStateVec(n)
        for i in range(n):
            vec.set_st(i, int(rng.integers(0, 4)))
            vec.set_rdy(i, int(rng.integers(0, 300)))
            vec.set_act(i, int(rng.integers(0, 200)))
            vec.set_col(i, int(rng.integers(0, 250)))
            vec.set_lact(i, int(rng.integers(0, 250)))
        now = 100
        tCCD, tRAS, tWR, cw = 4, 28, 12, 8
        got = EventDrivenEngine._bank_events_vec(vec, now, tCCD, tRAS, tWR, cw)
        best = _FAR
        for i in range(n):
            st = vec.st_l[i]
            if st in (1, 3):
                v = vec.rdy_l[i]
                if now < v < best:
                    best = v
            elif st == 2:
                for v in (
                    max(vec.col_l[i] + tCCD, vec.rdy_l[i]),
                    vec.act_l[i] + tRAS,
                    vec.col_l[i] + tWR,
                    vec.lact_l[i] + cw,
                ):
                    if now < v < best:
                        best = v
        assert got == best

    def test_bank_state_vec_consistency(self):
        vec = BankStateVec(8)
        assert vec.consistent()
        vec.set_st(3, 2)
        vec.set_row(3, 41)
        vec.set_rdy(3, 17)
        vec.set_act(3, 9)
        vec.set_col(3, 13)
        vec.set_lact(3, 9)
        assert vec.consistent()
        assert vec.st[3] == vec.st_l[3] == 2
        # A raw array write (bypassing set_*) is exactly what
        # consistent() exists to catch.
        vec.st[3] = 0
        assert not vec.consistent()


class TestBatchedAdmission:
    def test_default_loop_matches_scalar(self, timing):
        pol = StandardJEDEC(timing)
        pol.on_activate(0, 50)
        counts = (1, 0, 0, 0)
        dies = [0, 1, 2, 3]
        assert pol.admit_activations(dies, 51, counts) == [
            pol.may_activate(d, 51, counts) for d in dies
        ]

    def test_ir_batch_matches_scalar(self, ddr3_lut):
        pol = IRAwareFCFS(ddr3_lut, 24.0)
        for counts in ((0, 0, 0, 0), (1, 0, 1, 0), (2, 1, 0, 0), (2, 2, 2, 2)):
            dies = [0, 1, 2, 3, 0]
            batched = pol.admit_activations(dies, 10, counts)
            scalar = [pol.may_activate(d, 10, counts) for d in dies]
            assert batched == scalar, counts

    def test_empty_batch(self, ddr3_lut):
        assert IRAwareFCFS(ddr3_lut, 24.0).admit_activations([], 0, (0,) * 4) == []

    def test_lut_batch_matches_scalar(self, ddr3_lut):
        counts = [
            (0, 0, 0, 0),
            (1, 0, 0, 0),
            (2, 0, 0, 2),
            (3, 0, 0, 0),  # out of range -> False, not an error
            (2, 2, 2, 2),
        ]
        batch = np.array(counts, dtype=np.int64)
        for constraint in (None, 24.0, 1.0):
            got = ddr3_lut.allows_batch(batch, constraint)
            for state, ok in zip(counts, got):
                if max(state) > ddr3_lut.max_banks_per_die:
                    assert not ok
                else:
                    assert bool(ok) == ddr3_lut.allows(state, constraint)

    def test_as_array_matches_lookup(self, ddr3_lut):
        arr = ddr3_lut.as_array()
        assert arr.shape == (3, 3, 3, 3)
        for state, value in ddr3_lut.as_dict().items():
            assert arr[state] == value

"""Tests for the performance layer: batched solves, caches, fan-out, timers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.controller import IRDropLUT
from repro.controller.lut import StaticIRDropLUT
from repro.errors import SolverError
from repro.perf.cache import (
    LRUCache,
    cache_stats,
    cached_build_stack,
    cached_dram_power_map,
    clear_caches,
    power_map_cache,
    power_map_cache_enabled,
    stack_cache,
)
from repro.perf.parallel import (
    WORKERS_ENV,
    iter_chunks,
    map_design_points,
    resolve_workers,
)
from repro.perf.timers import add_time, report, reset_timers, snapshot, timed
from repro.power.state import MemoryState
from repro.regress.model import sample_design_space, valid_discrete_combos
from repro.rmesh.solve import currents_from_maps


# -- batched multi-RHS solves -------------------------------------------------


def test_solve_many_bitwise_matches_solve_currents(ddr3_stack, ddr3_off_bench):
    solver = ddr3_stack.solver
    states = [
        MemoryState.from_counts(counts, ddr3_off_bench.stack.dram_floorplan)
        for counts in [(0, 0, 0, 2), (2, 0, 0, 0), (1, 1, 1, 1)]
    ]
    columns = [
        currents_from_maps(ddr3_stack.model, ddr3_stack.power_maps(s))
        for s in states
    ]
    batched = solver.solve_many(np.stack(columns, axis=1))
    assert len(batched) == len(states)
    for column, result in zip(columns, batched):
        single = solver.solve_currents(column)
        assert np.array_equal(single.drops, result.drops)


def test_solve_many_validates_shape_and_sign(ddr3_stack):
    solver = ddr3_stack.solver
    with pytest.raises(SolverError):
        solver.solve_many(np.zeros(5))
    with pytest.raises(SolverError):
        solver.solve_many(np.zeros((5, 2)))
    bad = np.zeros((ddr3_stack.model.num_nodes, 1))
    bad[0, 0] = -1.0
    with pytest.raises(SolverError):
        solver.solve_many(bad)


def test_solve_many_empty_block(ddr3_stack):
    assert ddr3_stack.solver.solve_many(
        np.zeros((ddr3_stack.model.num_nodes, 0))
    ) == []


def test_solve_states_matches_solve_state(ddr3_stack, ddr3_off_bench):
    fp = ddr3_off_bench.stack.dram_floorplan
    states = [
        MemoryState.from_counts(c, fp)
        for c in [(0, 0, 0, 2), (2, 2, 2, 2), (0, 1, 0, 0)]
    ]
    batched = ddr3_stack.solve_states(states)
    for state, got in zip(states, batched):
        ref = ddr3_stack.solve_state(state)
        assert got.dram_max_mv == ref.dram_max_mv
        assert got.per_die_mv == ref.per_die_mv
        assert got.total_power_mw == pytest.approx(ref.total_power_mw)
    assert ddr3_stack.solve_states([]) == []


# -- keyed solver/stack cache -------------------------------------------------


def test_cached_build_stack_matches_fresh(ddr3_stack, ddr3_off_bench):
    clear_caches()
    bench = ddr3_off_bench
    cached = cached_build_stack(bench.stack, bench.baseline)
    state = bench.reference_state()
    assert cached.dram_max_mv(state) == ddr3_stack.dram_max_mv(state)
    # Second lookup returns the same object (factorization reused).
    again = cached_build_stack(bench.stack, bench.baseline)
    assert again is cached
    assert stack_cache.stats()["hits"] >= 1


def test_cache_distinguishes_configs(ddr3_off_bench):
    clear_caches()
    bench = ddr3_off_bench
    base = cached_build_stack(bench.stack, bench.baseline)
    wider = cached_build_stack(
        bench.stack, bench.baseline.with_options(m3_usage=0.40)
    )
    assert base is not wider
    state = bench.reference_state()
    assert wider.dram_max_mv(state) < base.dram_max_mv(state)


def test_lru_eviction_and_stats():
    lru = LRUCache(maxsize=2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refreshes "a"
    lru.put("c", 3)  # evicts "b", the least recently used
    assert lru.get("b") is None
    assert lru.get("a") == 1
    assert lru.get("c") == 3
    stats = lru.stats()
    assert stats["evictions"] == 1
    assert stats["size"] == 2
    assert cache_stats().keys() == {"stack", "plan", "assembled", "power_map"}


def test_lru_rejects_bad_maxsize():
    with pytest.raises(ValueError):
        LRUCache(maxsize=0)


# -- power-map cache: logic-die maps and per-stack keys --------------------------


@pytest.fixture
def logic_rasterizations(monkeypatch):
    """Count calls of the logic-die rasterizer behind the cache."""
    import repro.power.powermap as powermap

    calls = []
    inner = powermap.logic_power_map

    def counting(*args, **kwargs):
        calls.append(kwargs.get("scale", 1.0))
        return inner(*args, **kwargs)

    monkeypatch.setattr(powermap, "logic_power_map", counting)
    return calls


def _logic_map(stack, counts=(0, 0, 0, 0), scale=1.0):
    state = MemoryState.from_counts(counts, stack.spec.dram_floorplan)
    return stack.power_maps(state, scale)[stack.logic_load_key]


def _fresh_logic_map(stack, scale=1.0):
    from repro.power.powermap import logic_power_map

    spec = stack.spec
    return logic_power_map(
        spec.logic_floorplan, spec.logic_power, stack.logic_grid,
        stack.tech.vdd, scale=scale,
    )


def test_logic_map_rasterized_once_per_stack_and_scale(
    onchip_stack, logic_rasterizations
):
    clear_caches()
    want = _fresh_logic_map(onchip_stack).current.tobytes()
    logic_rasterizations.clear()
    for counts in [(0, 0, 0, 0), (1, 0, 0, 2), (2, 2, 2, 2)]:
        assert _logic_map(onchip_stack, counts).current.tobytes() == want
    assert logic_rasterizations == [1.0]  # state-independent: one miss
    half = _logic_map(onchip_stack, scale=0.5)
    assert half.current.tobytes() == (
        _fresh_logic_map(onchip_stack, scale=0.5).current.tobytes()
    )
    assert logic_rasterizations == [1.0, 0.5, 0.5]  # scale is in the key
    assert cache_stats().keys() == {"stack", "plan", "assembled", "power_map"}


def test_logic_map_cache_hands_out_copies(onchip_stack):
    clear_caches()
    want = _fresh_logic_map(onchip_stack).current.tobytes()
    miss = _logic_map(onchip_stack)
    miss.current += 1.0  # the array the miss returned is not the cached one
    hit = _logic_map(onchip_stack)
    assert hit.current.tobytes() == want
    hit.current *= 3.0  # nor is the array a hit returns
    assert _logic_map(onchip_stack).current.tobytes() == want


def test_logic_map_cache_cleared_and_disabled(onchip_stack, logic_rasterizations):
    clear_caches()
    _logic_map(onchip_stack)
    _logic_map(onchip_stack)
    assert len(logic_rasterizations) == 1
    clear_caches()  # drops the logic entry with every other power map
    _logic_map(onchip_stack)
    assert len(logic_rasterizations) == 2
    power_map_cache_enabled(False)
    try:
        _logic_map(onchip_stack)
        _logic_map(onchip_stack)
        assert len(logic_rasterizations) == 4  # every lookup re-rasterizes
        assert len(power_map_cache) == 0
    finally:
        power_map_cache_enabled(True)


def test_stack_key_prefix_matches_per_call_key(ddr3_stack):
    # The stack's once-built key prefix and a direct caller's per-call one
    # address the same cache entry.
    clear_caches()
    state = MemoryState.from_counts((0, 1, 0, 2), ddr3_stack.spec.dram_floorplan)
    ddr3_stack.power_maps(state)
    entries = len(power_map_cache)
    hits = power_map_cache.hits
    direct = cached_dram_power_map(
        ddr3_stack.spec.dram_floorplan, ddr3_stack.spec.dram_power, state, 3,
        ddr3_stack.dram_grid, ddr3_stack.tech.vdd,
    )
    assert len(power_map_cache) == entries
    assert power_map_cache.hits == hits + 1
    assert direct.current.tobytes() == (
        ddr3_stack.power_maps(state)["dram4/M1"].current.tobytes()
    )


def test_direct_caller_key_follows_a_mutated_floorplan(ddr3_stack):
    # DieFloorplan is a mutable dataclass: a direct caller's key is rebuilt
    # from repr on every call, never memoized on the object's identity.
    import copy

    from repro.power.powermap import dram_power_map

    clear_caches()
    floorplan = copy.deepcopy(ddr3_stack.spec.dram_floorplan)
    state = MemoryState.from_counts((0, 0, 0, 2), floorplan)
    args = (ddr3_stack.spec.dram_power, state, 3, ddr3_stack.dram_grid,
            ddr3_stack.tech.vdd)
    cached_dram_power_map(floorplan, *args)
    idle_bank = max(b.bank_id for b in floorplan.banks())
    assert idle_bank not in state.active[3]
    floorplan.blocks = [b for b in floorplan.blocks if b.bank_id != idle_bank]
    misses = power_map_cache.misses
    second = cached_dram_power_map(floorplan, *args)
    assert power_map_cache.misses == misses + 1
    assert second.current.tobytes() == (
        dram_power_map(floorplan, *args).current.tobytes()
    )


# -- process fan-out ----------------------------------------------------------


def test_sample_design_space_workers_matches_serial(ddr3_off_bench):
    combos = valid_discrete_combos(ddr3_off_bench)[:2]
    kwargs = dict(m2_points=2, m3_points=1, tc_points=1, combos=combos)
    serial = sample_design_space(ddr3_off_bench, workers=1, **kwargs)
    parallel = sample_design_space(ddr3_off_bench, workers=2, **kwargs)
    assert [s.config for s in serial] == [s.config for s in parallel]
    assert [s.ir_mv for s in serial] == [s.ir_mv for s in parallel]


def test_map_design_points_preserves_order():
    items = list(range(7))
    assert map_design_points(_square, items, workers=1) == [i * i for i in items]
    assert map_design_points(_square, items, workers=2) == [i * i for i in items]


def _square(x: int) -> int:
    return x * x


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(1) == 1
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert resolve_workers(None) >= 1  # clamped to <= 2x cpu count
    monkeypatch.setenv(WORKERS_ENV, "garbage")
    assert resolve_workers(None) == 1
    with pytest.raises(ValueError):
        resolve_workers(-2)


def test_iter_chunks():
    assert list(iter_chunks([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4], [5]]
    with pytest.raises(ValueError):
        list(iter_chunks([1], 0))


# -- LUT batching and serialization ------------------------------------------


def test_lut_batched_equals_per_state(ddr3_stack, ddr3_lut):
    # Rebuild lazily and resolve every entry one back-substitution at a
    # time; the batched precompute (ddr3_lut fixture) must agree exactly.
    lazy = IRDropLUT(ddr3_stack, precompute=False)
    for counts in ddr3_lut.as_dict():
        assert lazy.lookup(counts) == ddr3_lut.lookup(counts)
    assert lazy.as_dict() == ddr3_lut.as_dict()


def test_lut_precompute_idempotent(ddr3_lut):
    before = ddr3_lut.as_dict()
    ddr3_lut.precompute_all()  # no pending states: must be a no-op
    assert ddr3_lut.as_dict() == before


def test_to_json_completes_partial_table(ddr3_stack):
    partial = IRDropLUT(ddr3_stack, precompute=False)
    partial.lookup((0, 0, 0, 1))
    assert partial.size < 3**4
    restored = IRDropLUT.from_json(partial.to_json())
    assert isinstance(restored, StaticIRDropLUT)
    # The shipped table is complete: any in-range state resolves.
    assert restored.size == 3**4
    assert restored.lookup((2, 2, 2, 2)) == pytest.approx(
        partial.lookup((2, 2, 2, 2)), abs=1e-4
    )


# -- timers -------------------------------------------------------------------


def test_timers_accumulate_and_report():
    reset_timers()
    add_time("unit.test", 0.5)
    add_time("unit.test", 0.25, count=2)
    with timed("unit.other"):
        pass
    snap = snapshot()
    assert snap["unit.test"] == (0.75, 3)
    assert snap["unit.other"][1] == 1
    text = report()
    assert "unit.test" in text and "unit.other" in text
    reset_timers()
    assert report() == "perf: no timers recorded"


def test_solver_paths_record_timers(ddr3_off_bench):
    reset_timers()
    clear_caches()
    bench = ddr3_off_bench
    stack = cached_build_stack(bench.stack, bench.baseline)
    stack.dram_max_mv(bench.reference_state())
    names = set(snapshot())
    assert "stackup.build" in names
    assert "solver.factorize" in names
    assert "solver.solve" in names

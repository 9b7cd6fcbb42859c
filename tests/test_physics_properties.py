"""Property-based tests of the stack physics on the real DDR3 design.

These run against the session-shared factorized baseline stack, so each
property evaluation is a cheap back-substitution.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.power import MemoryState
from repro.power.powermap import PowerMap
from repro.rmesh.solve import currents_from_maps

counts_strategy = st.lists(
    st.integers(min_value=0, max_value=2), min_size=4, max_size=4
).map(tuple)

shared = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestStackPhysicsProperties:
    @shared
    @given(counts_strategy)
    def test_drops_nonnegative(self, ddr3_stack, ddr3_floorplan, counts):
        state = MemoryState.from_counts(counts, ddr3_floorplan)
        res = ddr3_stack.solve_state(state)
        assert np.all(res.raw.drops >= -1e-12)
        assert res.dram_max_mv >= 0.0

    @shared
    @given(counts_strategy)
    def test_superposition_on_states(self, ddr3_stack, ddr3_floorplan, counts):
        """Doubling every load current exactly doubles every drop."""
        state = MemoryState.from_counts(counts, ddr3_floorplan)
        maps = ddr3_stack.power_maps(state)
        solver = ddr3_stack.solver
        base = solver.solve_power_maps(maps).drops
        doubled = {
            key: PowerMap(pmap.grid, pmap.current * 2.0)
            for key, pmap in maps.items()
        }
        twice = solver.solve_power_maps(doubled).drops
        assert np.allclose(twice, 2.0 * base, rtol=1e-9, atol=1e-12)

    @shared
    @given(counts_strategy)
    def test_activity_share_never_raises_per_die_power_drop(
        self, ddr3_stack, ddr3_floorplan, counts
    ):
        """Adding active banks on OTHER dies never increases the total
        current drawn by a fixed die (its activity share shrinks)."""
        state = MemoryState.from_counts(counts, ddr3_floorplan)
        fuller = MemoryState.from_counts(
            tuple(max(c, 1) for c in counts), ddr3_floorplan
        )
        maps_a = ddr3_stack.power_maps(state)
        maps_b = ddr3_stack.power_maps(fuller)
        for die in range(4):
            if counts[die] > 0:
                key = ddr3_stack.load_layer_key(die)
                assert (
                    maps_b[key].total_current
                    <= maps_a[key].total_current + 1e-12
                )

    @shared
    @given(counts_strategy, counts_strategy)
    def test_more_banks_more_total_current(
        self, ddr3_stack, ddr3_floorplan, a, b
    ):
        """Pointwise-larger states draw at least as much total current."""
        hi = tuple(max(x, y) for x, y in zip(a, b))
        state_a = MemoryState.from_counts(a, ddr3_floorplan)
        state_hi = MemoryState.from_counts(hi, ddr3_floorplan)
        total_a = sum(m.total_current for m in ddr3_stack.power_maps(state_a).values())
        total_hi = sum(m.total_current for m in ddr3_stack.power_maps(state_hi).values())
        assert total_hi >= total_a - 1e-12

    @pytest.mark.parametrize("backend", ["direct", "cg"])
    @pytest.mark.parametrize("key", ["ddr3_off", "ddr3_on", "wideio", "hmc"])
    def test_branch_currents_conserve_charge(self, paper_stacks, key, backend):
        """KCL on the recovered branch currents: at every interior node
        the net branch current equals the injected load, within 1e-9
        relative, on all four paper stacks and both solver backends."""
        from repro.rmesh import extract_branches

        bench, stack = paper_stacks[key]
        solver = stack.solver_for(backend)
        currents = currents_from_maps(
            stack.model, stack.power_maps(bench.reference_state())
        )
        raw = solver.solve_currents(currents)
        branches = extract_branches(raw.model, np.asarray(raw.drops))
        residual = branches.kcl_residual(currents)
        assert residual["max_rel"] < 1e-9
        # Global conservation: every injected amp returns via the supply.
        assert residual["supply_return_a"] == pytest.approx(
            residual["injected_a"], rel=1e-9
        )

    def test_reciprocity(self, ddr3_stack):
        """Transfer resistance is symmetric: injecting at i and measuring
        at j equals injecting at j and measuring at i."""
        solver = ddr3_stack.solver
        n = ddr3_stack.model.num_nodes
        rng = np.random.default_rng(3)
        for _ in range(4):
            i, j = rng.integers(1, n, size=2)
            e_i = np.zeros(n)
            e_i[i] = 1.0
            e_j = np.zeros(n)
            e_j[j] = 1.0
            v_from_i = solver.solve_currents(e_i).drops
            v_from_j = solver.solve_currents(e_j).drops
            assert v_from_i[j] == pytest.approx(v_from_j[i], rel=1e-9, abs=1e-15)

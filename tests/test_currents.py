"""Branch currents and TSV current crowding (``StackBranches`` views)."""

import numpy as np
import pytest

from repro.errors import MeshError, SolverError
from repro.pdn import build_stack
from repro.power import MemoryState
from repro.rmesh.branches import CrowdingReport, extract_branches


def _branches(result):
    return extract_branches(result.raw.model, result.raw.drops)


@pytest.fixture(scope="module")
def branches(ddr3_stack, ddr3_floorplan):
    state = MemoryState.from_string("0-0-0-2", ddr3_floorplan)
    return _branches(ddr3_stack.solve_state(state))


class TestCrowdingReport:
    def test_uniform_distribution(self):
        report = CrowdingReport(np.full(10, 0.01))
        assert report.crowding_factor == pytest.approx(1.0)
        assert report.gini == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_distribution(self):
        currents = np.zeros(10)
        currents[0] = 1.0
        report = CrowdingReport(currents)
        assert report.crowding_factor == pytest.approx(10.0)
        assert report.gini > 0.8

    def test_empty_rejected(self):
        with pytest.raises(SolverError):
            CrowdingReport(np.array([]))

    def test_totals(self):
        report = CrowdingReport(np.array([0.1, 0.3]))
        assert report.total_a == pytest.approx(0.4)
        assert report.max_a == pytest.approx(0.3)
        assert report.mean_a == pytest.approx(0.2)


class TestInterfaceCurrents:
    def test_kcl_total_equals_downstream_power(
        self, ddr3_stack, branches, ddr3_floorplan
    ):
        """Current crossing interface 3->4 equals the top die's draw."""
        state = MemoryState.from_string("0-0-0-2", ddr3_floorplan)
        maps = ddr3_stack.power_maps(state)
        top_current = maps[ddr3_stack.load_layer_key(3)].total_current
        group = branches.interface("dram3/M3", "dram4/M3")
        report = group.crowding()
        # Net upward current == top die load (signed sum, not magnitudes).
        net = float(group.current.sum())
        assert abs(net) == pytest.approx(top_current, rel=1e-6)
        assert report.total_a >= abs(net) - 1e-12

    def test_interface_is_symmetric_in_its_keys(self, branches):
        up = branches.interface("dram3/M3", "dram4/M3")
        down = branches.interface("dram4/M3", "dram3/M3")
        assert np.array_equal(up.a, down.a)
        assert np.array_equal(up.current, down.current)

    def test_supply_kcl(self, ddr3_stack, branches, ddr3_floorplan):
        """Supply entry current equals the whole stack's draw."""
        state = MemoryState.from_string("0-0-0-2", ddr3_floorplan)
        total_load = sum(
            m.total_current for m in ddr3_stack.power_maps(state).values()
        )
        report = branches.supply.crowding()
        assert report.total_a == pytest.approx(total_load, rel=1e-6)

    def test_unknown_interface(self, branches):
        with pytest.raises((SolverError, MeshError)):
            branches.interface("dram1/M3", "nope/M3")

    def test_unlinked_layers_raise(self, branches):
        # Both layers exist, but no vertical link joins them directly.
        with pytest.raises(SolverError, match="no links between"):
            branches.interface("dram1/M3", "dram4/M3")

    def test_crowding_follows_load_location(self, ddr3_off_bench, ddr3_floorplan):
        """Edge TSVs near the active banks carry disproportionate current
        (the crowding the paper's reference [6] studies)."""
        state = MemoryState.from_string("0-0-0-2", ddr3_floorplan)
        stack = build_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        report = (
            _branches(stack.solve_state(state))
            .interface("dram3/M3", "dram4/M3")
            .crowding()
        )
        assert report.crowding_factor > 1.5

    def test_idle_stack_interface_quiet(self, ddr3_stack):
        res = ddr3_stack.solve_state(MemoryState.idle(4))
        report = _branches(res).interface("dram3/M3", "dram4/M3").crowding()
        # Only the idle die's standby current crosses upward.
        assert report.total_a < 0.1


class TestLateralDensity:
    def test_shape_and_nonnegative(self, ddr3_stack, branches):
        density = branches.layer_current_density("dram4/M3")
        grid = ddr3_stack.model.layer_grid("dram4/M3")
        assert density.shape == (grid.ny, grid.nx)
        assert np.all(density >= 0.0)

    def test_density_is_mean_incident_edge_current(self, branches):
        """Each node's density is the mean |I| of its incident x/y edges,
        computed here independently on the layer's (ny, nx) grid."""
        key = "dram4/M3"
        mesh = branches.model.layer_entry(key).mesh
        grid = mesh.grid
        field = branches.drops[branches.model.layer_slice(key)].reshape(
            grid.ny, grid.nx
        )
        ix = np.abs(mesh.gx * np.diff(field, axis=1))
        iy = np.abs(mesh.gy * np.diff(field, axis=0))
        total = np.zeros_like(field)
        counts = np.zeros_like(field)
        for edge, axis in ((ix, 1), (iy, 0)):
            lo = [slice(None), slice(None)]
            hi = [slice(None), slice(None)]
            lo[axis], hi[axis] = slice(None, -1), slice(1, None)
            for sl in (tuple(lo), tuple(hi)):
                total[sl] += edge
                counts[sl] += 1
        expected = total / np.maximum(counts, 1)
        density = branches.layer_current_density(key)
        np.testing.assert_allclose(density, expected, rtol=1e-12, atol=0.0)

    def test_hotspot_near_active_bank(self, branches, ddr3_floorplan):
        (i, j), amps = branches.worst_lateral_hotspot("dram4/M3")
        assert amps > 0.0
        # The active banks sit in the left column: the hotspot's x index
        # is in the left half of the die.
        assert i < 9

    def test_unknown_layer(self, branches):
        with pytest.raises(SolverError):
            branches.layer_current_density("nope")
        with pytest.raises(SolverError):
            branches.layer_dissipation_map("nope")

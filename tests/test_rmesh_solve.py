"""StackModel assembly and solver, verified against analytic networks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MeshError, SolverError
from repro.geometry import Grid2D, Point, Rect
from repro.rmesh import LayerMesh, StackModel, StackSolver

def line_mesh(n: int, g: float, name: str = "line") -> LayerMesh:
    """A 1D chain of n nodes with edge conductance g (ny=1)."""
    grid = Grid2D(Rect(0, 0, float(n), 1.0), nx=n, ny=1)
    return LayerMesh(
        grid,
        gx=np.full((1, n - 1), g),
        gy=np.zeros((0, n)),
        name=name,
    )


def build_chain(n: int, g_edge: float, g_supply: float) -> StackModel:
    """Supply at node 0 of an n-node resistor chain."""
    model = StackModel()
    key = model.add_layer("die", line_mesh(n, g_edge))
    model.connect_supply_at_points(key, [Point(0.5, 0.5)], g_supply)
    return model


class TestAnalyticNetworks:
    def test_single_resistor_drop(self):
        """1 A through a 2-ohm supply link drops exactly 2 V."""
        model = build_chain(2, g_edge=1.0, g_supply=0.5)
        solver = StackSolver(model)
        currents = np.zeros(2)
        currents[0] = 1.0
        res = solver.solve_currents(currents)
        assert res.drops[0] == pytest.approx(2.0)

    def test_series_chain(self):
        """Drop accumulates along a series chain: V_k = I*(R_s + k*R)."""
        g_edge, g_supply, current = 2.0, 4.0, 0.5
        model = build_chain(4, g_edge, g_supply)
        solver = StackSolver(model)
        currents = np.zeros(4)
        currents[3] = current  # load at the far end
        res = solver.solve_currents(currents)
        for k in range(4):
            expected = current * (1.0 / g_supply + k / g_edge)
            assert res.drops[k] == pytest.approx(expected)

    def test_superposition(self):
        """The network is linear: solve(a + b) == solve(a) + solve(b)."""
        model = build_chain(5, 1.0, 2.0)
        solver = StackSolver(model)
        rng = np.random.default_rng(7)
        a = rng.random(5) * 0.1
        b = rng.random(5) * 0.1
        sum_res = solver.solve_currents(a + b).drops
        sep = solver.solve_currents(a).drops + solver.solve_currents(b).drops
        assert np.allclose(sum_res, sep)

    def test_two_parallel_supplies(self):
        """Two equal supply links halve the entry resistance."""
        model = StackModel()
        key = model.add_layer("die", line_mesh(2, 100.0))
        model.connect_supply_at_points(
            key, [Point(0.5, 0.5), Point(1.5, 0.5)], 1.0
        )
        solver = StackSolver(model)
        res = solver.solve_currents(np.array([1.0, 0.0]))
        # Strong edge ties the nodes; total supply conductance 2 S.
        assert res.max_drop() == pytest.approx(0.5, rel=0.02)

    def test_vertical_link_in_series(self):
        """Two stacked layers joined by one link behave as series Rs."""
        model = StackModel()
        bottom = model.add_layer("die", line_mesh(2, 1.0, "bot"))
        top = model.add_layer("die", line_mesh(2, 1.0, "top"), key="die/top")
        model.connect_supply_at_points(bottom, [Point(0.5, 0.5)], 1.0)
        model.connect_layers_at_points(bottom, top, [Point(0.5, 0.5)], 0.5)
        solver = StackSolver(model)
        currents = np.zeros(4)
        currents[2] = 1.0  # top layer node 0
        res = solver.solve_currents(currents)
        # Path: supply (1 ohm) + link (2 ohm) = 3 ohm.
        assert res.drops[2] == pytest.approx(3.0)


class TestStackModel:
    def test_no_supply_rejected(self):
        model = StackModel()
        model.add_layer("die", line_mesh(3, 1.0))
        with pytest.raises(MeshError):
            model.conductance_matrix()

    def test_empty_model_rejected(self):
        with pytest.raises(MeshError):
            StackModel().conductance_matrix()

    def test_duplicate_key_rejected(self):
        model = StackModel()
        model.add_layer("die", line_mesh(2, 1.0), key="k")
        with pytest.raises(MeshError):
            model.add_layer("die", line_mesh(2, 1.0), key="k")

    def test_nonpositive_link_rejected(self):
        model = StackModel()
        a = model.add_layer("d", line_mesh(2, 1.0, "a"))
        b = model.add_layer("d", line_mesh(2, 1.0, "b"), key="d/b")
        with pytest.raises(MeshError):
            model.connect_layers_at_points(a, b, [Point(0.5, 0.5)], 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_non_finite_link_rejected_with_context(self, bad):
        model = StackModel()
        a = model.add_layer("d", line_mesh(3, 1.0, "a"))
        b = model.add_layer("d", line_mesh(3, 1.0, "b"), key="d/b")
        points = [Point(0.5, 0.5), Point(1.5, 0.5), Point(2.5, 0.5)]
        with pytest.raises(MeshError) as info:
            model.connect_layers_at_points(a, b, points, [1.0, 2.0, bad])
        assert info.value.context == {"key_a": a, "key_b": b, "index": 2}
        assert a in str(info.value) and b in str(info.value)
        assert model.link_count == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_non_finite_supply_rejected_with_context(self, bad):
        model = StackModel()
        a = model.add_layer("d", line_mesh(2, 1.0, "a"))
        with pytest.raises(MeshError) as info:
            model.connect_supply_at_points(
                a, [Point(0.5, 0.5), Point(1.5, 0.5)], [bad, 1.0]
            )
        assert info.value.context["key_a"] == a
        assert info.value.context["index"] == 0
        assert not model.has_supply()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_non_finite_area_conductance_rejected(self, bad):
        model = StackModel()
        a = model.add_layer("d", line_mesh(2, 1.0, "a"))
        b = model.add_layer("d", line_mesh(2, 1.0, "b"), key="d/b")
        with pytest.raises(MeshError) as info:
            model.connect_layers_uniform(a, b, bad)
        assert (info.value.context["key_a"], info.value.context["key_b"]) == (a, b)

    def test_mismatched_conductance_list(self):
        model = StackModel()
        a = model.add_layer("d", line_mesh(2, 1.0, "a"))
        with pytest.raises(MeshError):
            model.connect_supply_at_points(
                a, [Point(0.5, 0.5), Point(1.5, 0.5)], [1.0]
            )

    def test_die_node_ids(self):
        model = StackModel()
        model.add_layer("a", line_mesh(3, 1.0, "l1"))
        model.add_layer("b", line_mesh(2, 1.0, "l2"))
        assert model.die_node_ids("a").tolist() == [0, 1, 2]
        assert model.die_node_ids("b").tolist() == [3, 4]
        with pytest.raises(MeshError):
            model.die_node_ids("c")

    def test_layer_origin_offsets_node_lookup(self):
        model = StackModel()
        key = model.add_layer("d", line_mesh(2, 1.0), origin=Point(10.0, 0.0))
        # Stack coordinate 10.5 is local 0.5 -> node 0.
        assert model.node_at(key, Point(10.5, 0.5)) == 0

    def test_matrix_symmetric_diagonally_dominant(self):
        model = build_chain(6, 1.3, 0.7)
        m = model.conductance_matrix().toarray()
        assert np.allclose(m, m.T)
        # Diagonal dominance (strict at the supplied node).
        off = np.abs(m).sum(axis=1) - np.abs(np.diag(m))
        assert np.all(np.diag(m) >= off - 1e-12)
        assert np.diag(m)[0] > off[0]


class TestSolver:
    def test_wrong_shape_rejected(self):
        solver = StackSolver(build_chain(3, 1.0, 1.0))
        with pytest.raises(SolverError):
            solver.solve_currents(np.zeros(5))

    def test_negative_current_rejected(self):
        solver = StackSolver(build_chain(3, 1.0, 1.0))
        with pytest.raises(SolverError):
            solver.solve_currents(np.array([-1.0, 0.0, 0.0]))

    def test_zero_load_zero_drop(self):
        solver = StackSolver(build_chain(3, 1.0, 1.0))
        res = solver.solve_currents(np.zeros(3))
        assert np.allclose(res.drops, 0.0)

    def test_worst_node_location(self):
        model = build_chain(4, 1.0, 1.0)
        solver = StackSolver(model)
        res = solver.solve_currents(np.array([0.0, 0.0, 0.0, 1.0]))
        key, point = res.worst_node_location()
        assert key == "die/line"
        assert point.x == pytest.approx(3.5)  # last node's cell center

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4
        )
    )
    def test_drops_nonnegative_and_monotone_from_supply(self, loads):
        """All drops >= 0, and scaling loads up never lowers any drop."""
        solver = StackSolver(build_chain(4, 1.0, 1.0))
        base = solver.solve_currents(np.array(loads)).drops
        double = solver.solve_currents(np.array(loads) * 2.0).drops
        assert np.all(base >= -1e-12)
        assert np.all(double >= base - 1e-12)
        assert np.allclose(double, 2.0 * base)  # linearity

"""Transient RC extension: settling, decap behaviour, schedules, and
the shared backend layer it solves on."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, SolverError
from repro.geometry import Grid2D, Rect
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.pdn import Mounting, PDNConfig, StackSpec
from repro.pdn.assemble import assemble
from repro.pdn.plan import ConnectAtPointsOp, SupplyOp
from repro.pdn.stackup import (
    DEFAULT_TECH,
    PDNStack,
    build_single_die_stack,
    plan_single_die_stack,
)
from repro.power import MemoryState
from repro.power.model import DDR3_POWER
from repro.power.powermap import PowerMap
from repro.rmesh.backends import clear_orderings
from repro.rmesh.solve import StackSolver
from repro.rmesh.transient import PACKAGE_PLANE, DecapConfig, TransientSolver


@pytest.fixture(scope="module")
def states(ddr3_floorplan):
    return {
        "idle": MemoryState.idle(4),
        "active": MemoryState.from_string("0-0-0-2", ddr3_floorplan),
    }


@pytest.fixture(scope="module")
def solver(ddr3_stack):
    return TransientSolver(ddr3_stack, DecapConfig(), dt_ns=1.0)


class TestConfig:
    def test_validation(self, ddr3_stack):
        with pytest.raises(ConfigurationError):
            DecapConfig(die_nf_per_mm2=-1.0)
        with pytest.raises(ConfigurationError):
            TransientSolver(ddr3_stack, dt_ns=0.0)

    def test_empty_schedule_rejected(self, solver):
        with pytest.raises(ConfigurationError):
            solver.simulate([])

    def test_nonpositive_duration_rejected(self, solver, states):
        with pytest.raises(ConfigurationError):
            solver.simulate([(states["active"], 0.0)])


class TestStepResponse:
    def test_settles_to_dc(self, solver, ddr3_stack, states):
        """The RC step response converges to the DC solve."""
        dc = ddr3_stack.dram_max_mv(states["active"])
        res = solver.step_response(states["active"], duration_ns=400.0)
        assert res.final_mv == pytest.approx(dc, rel=0.02)
        # RC networks approach monotonically: no overshoot beyond DC.
        assert res.peak_mv <= dc * 1.02

    def test_monotone_rise(self, solver, states):
        res = solver.step_response(states["active"], duration_ns=200.0)
        diffs = np.diff(res.dram_max_mv)
        assert np.all(diffs >= -1e-6)

    def test_initial_droop_suppressed_by_decap(self, ddr3_stack, states):
        """Right after the step, a bigger decap holds the rail up."""
        small = TransientSolver(
            ddr3_stack, DecapConfig(die_nf_per_mm2=0.01, package_uf=0.05), dt_ns=1.0
        )
        big = TransientSolver(
            ddr3_stack, DecapConfig(die_nf_per_mm2=1.0, package_uf=5.0), dt_ns=1.0
        )
        early_small = small.step_response(states["active"], 10.0).dram_max_mv[2]
        early_big = big.step_response(states["active"], 10.0).dram_max_mv[2]
        assert early_big < early_small

    def test_settling_time_grows_with_decap(self, ddr3_stack, states):
        fast = TransientSolver(
            ddr3_stack, DecapConfig(die_nf_per_mm2=0.02, package_uf=0.1), dt_ns=1.0
        )
        slow = TransientSolver(
            ddr3_stack, DecapConfig(die_nf_per_mm2=1.0, package_uf=5.0), dt_ns=1.0
        )
        t_fast = fast.step_response(states["active"], 500.0).settling_time_ns()
        t_slow = slow.step_response(states["active"], 500.0).settling_time_ns()
        assert t_slow > t_fast


class TestBurst:
    def test_short_burst_peak_below_dc(self, ddr3_stack, states):
        """A brief activation burst never reaches the DC droop: the decap
        sources the transient charge -- the AC benefit the paper credits
        to the decoupling capacitors behind the bond wires."""
        solver = TransientSolver(
            ddr3_stack, DecapConfig(die_nf_per_mm2=3.0, package_uf=5.0), dt_ns=1.0
        )
        dc = ddr3_stack.dram_max_mv(states["active"])
        burst = solver.simulate(
            [(states["idle"], 10.0), (states["active"], 8.0), (states["idle"], 50.0)]
        )
        assert burst.peak_mv < 0.8 * dc

    def test_recovery_after_burst(self, solver, states):
        res = solver.simulate(
            [(states["active"], 100.0), (states["idle"], 300.0)]
        )
        # After the load stops, the rail recovers toward the idle level.
        assert res.dram_max_mv[-1] < 0.2 * res.peak_mv

    def test_per_die_series_shapes(self, solver, states):
        res = solver.step_response(states["active"], 50.0)
        assert set(res.per_die_mv) == {"dram1", "dram2", "dram3", "dram4"}
        for series in res.per_die_mv.values():
            assert series.shape == res.times_ns.shape

    def test_v0_shape_checked(self, solver, states):
        with pytest.raises(SolverError):
            solver.simulate([(states["active"], 10.0)], v0=np.zeros(3))


def _planeless_single_die_stack(floorplan):
    """The 2D single-die stack with its package plane removed: the pad
    ring ties the die's top metal straight to the ideal supply."""
    plan = plan_single_die_stack(floorplan)
    ops = []
    for op in plan.ops:
        if getattr(op, "key", None) == PACKAGE_PLANE:
            continue  # the plane layer and its supply link
        if isinstance(op, ConnectAtPointsOp) and op.key_a == PACKAGE_PLANE:
            op = SupplyOp(op.key_b, op.xs, op.ys, op.conductances)
        ops.append(op)
    plan = dataclasses.replace(plan, ops=tuple(ops))
    spec = StackSpec(
        name="ddr3_2d",
        dram_floorplan=floorplan,
        dram_power=DDR3_POWER,
        num_dram_dies=1,
        mounting=Mounting.OFF_CHIP,
    )
    return PDNStack.from_assembled(
        spec, PDNConfig(), DEFAULT_TECH, plan, assemble(plan)
    )


class TestStackShapes:
    def test_single_die_stack_gets_bulk_capacitor(self, ddr3_floorplan):
        stack = build_single_die_stack(ddr3_floorplan, DDR3_POWER)
        decap = DecapConfig(package_uf=2.0)
        solver = TransientSolver(stack, decap, dt_ns=1.0)
        plane = stack.model.layer_slice(PACKAGE_PLANE)
        assert solver.cap[plane.start] == pytest.approx(2.0e-6)
        state = MemoryState.from_string("2", ddr3_floorplan)
        assert solver.step_response(state, 20.0).peak_mv > 0.0

    def test_stack_without_package_plane_has_no_bulk_capacitor(
        self, ddr3_floorplan
    ):
        stack = _planeless_single_die_stack(ddr3_floorplan)
        assert PACKAGE_PLANE not in stack.model.layer_keys
        solver = TransientSolver(stack, DecapConfig(package_uf=2.0), dt_ns=1.0)
        # Only the on-die decap remains: far below the 2 uF bulk part.
        assert solver.cap.sum() < 1e-6
        state = MemoryState.from_string("2", ddr3_floorplan)
        res = solver.step_response(state, 400.0)
        dc = stack.dram_max_mv(state)
        assert res.final_mv == pytest.approx(dc, rel=0.02)

    def test_power_map_on_wrong_grid_raises(
        self, ddr3_stack, solver, states, monkeypatch
    ):
        maps = dict(ddr3_stack.power_maps(states["active"]))
        key = next(iter(maps))
        maps[key] = PowerMap.zeros(Grid2D(Rect(0.0, 0.0, 1.0, 1.0), nx=2, ny=2))
        monkeypatch.setattr(ddr3_stack, "power_maps", lambda state: maps)
        with pytest.raises(SolverError, match="does not match layer"):
            solver.simulate([(states["active"], 5.0)])


class TestBackendLayer:
    """The transient solve runs on the shared backend layer."""

    SCHEDULE_NS = ((5.0, "idle"), (20.0, "active"), (40.0, "idle"))

    def _run(self, stack, states):
        solver = TransientSolver(
            stack, DecapConfig(die_nf_per_mm2=0.5, package_uf=1.0), dt_ns=1.0
        )
        return solver.simulate(
            [(states[name], ns) for ns, name in self.SCHEDULE_NS]
        )

    @pytest.mark.parametrize("backend", ["direct", "cg"])
    def test_backends_agree(self, ddr3_stack, states, monkeypatch, backend):
        monkeypatch.setenv("REPRO_SOLVER", "direct")
        reference = self._run(ddr3_stack, states)
        monkeypatch.setenv("REPRO_SOLVER", backend)
        res = self._run(ddr3_stack, states)
        assert res.peak_mv == pytest.approx(reference.peak_mv, rel=1e-6)
        assert res.final_mv == pytest.approx(reference.final_mv, rel=1e-6)

    def test_factorize_and_stepping_spans(self, ddr3_stack, states):
        base = obs_trace.span_count()
        solver = TransientSolver(ddr3_stack, DecapConfig(), dt_ns=1.0)
        res = solver.simulate([(states["active"], 30.0), (states["idle"], 30.0)])
        recs = [r for r in obs_trace.spans(since=base) if r.attrs.get("transient")]
        factorize = [r for r in recs if r.name == "solver.factorize"]
        stepping = [r for r in recs if r.name == "solver.solve_many"]
        assert len(factorize) == 1 and len(stepping) == 1
        assert factorize[0].attrs["nodes"] == ddr3_stack.model.num_nodes
        assert stepping[0].count == len(res.times_ns) == 60
        assert solver.factor_time == factorize[0].duration
        assert res.solve_time_s == stepping[0].duration

    def test_stepping_span_covers_simulate(self, solver, states):
        schedule = [(states["idle"], 20.0), (states["active"], 200.0)]
        solver.simulate(schedule)  # power maps cached before timing
        base = obs_trace.span_count()
        with obs_trace.span("test.simulate") as outer:
            solver.simulate(schedule)
        (stepping,) = [
            r for r in obs_trace.spans(since=base)
            if r.name == "solver.solve_many" and r.attrs.get("transient")
        ]
        assert stepping.duration >= 0.9 * outer.duration

    def test_reuses_dc_column_ordering(self, ddr3_stack, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "direct")
        clear_orderings()  # no earlier test's ordering may serve either side
        before = obs_metrics.snapshot()
        StackSolver(ddr3_stack.model, backend="direct")  # DC comes first
        mid = obs_metrics.snapshot()
        TransientSolver(ddr3_stack, DecapConfig(), dt_ns=1.0)
        dc = obs_metrics.diff(before, mid)["counters"]
        transient = obs_metrics.diff(mid, obs_metrics.snapshot())["counters"]
        assert dc.get("solver.orderings_computed") == 1
        assert dc.get("solver.orderings_reused", 0) == 0
        assert transient.get("solver.orderings_reused") == 1
        assert transient.get("solver.orderings_computed", 0) == 0
        assert transient.get("solver.factorizations") == 1


#: Sparse factorization / solve entry points that only the backend layer
#: may call.
_SOLVE_CALLS = {"splu", "spsolve", "cg"}


def _sparse_solve_calls(path):
    """(line, name) of every scipy sparse factorization / solve call."""
    tree = ast.parse(path.read_text(), filename=str(path))
    linalg_aliases, direct_names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "scipy.sparse.linalg" and alias.asname:
                    linalg_aliases.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module == "scipy.sparse" and alias.name == "linalg":
                    linalg_aliases.add(alias.asname or "linalg")
                if node.module == "scipy.sparse.linalg" and alias.name in _SOLVE_CALLS:
                    direct_names.add(alias.asname or alias.name)
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in direct_names:
            hits.append((node.lineno, func.id))
        elif isinstance(func, ast.Attribute) and func.attr in _SOLVE_CALLS:
            # ``x.cg(...)`` is scipy's only when ``x`` is the linalg module.
            base = func.value
            is_linalg = (
                isinstance(base, ast.Name) and base.id in linalg_aliases
            ) or (isinstance(base, ast.Attribute) and base.attr == "linalg")
            if func.attr != "cg" or is_linalg:
                hits.append((node.lineno, func.attr))
    return hits


def test_only_the_backend_layer_solves_sparse_systems():
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    allowed = src / "rmesh" / "backends.py"
    assert _sparse_solve_calls(allowed), "guard no longer sees backends.py"
    offenders = {
        str(path.relative_to(src)): hits
        for path in sorted(src.rglob("*.py"))
        if path != allowed and (hits := _sparse_solve_calls(path))
    }
    assert offenders == {}

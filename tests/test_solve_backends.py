"""Solver backend abstraction, warm-start session, and solve-path edges.

Covers the pluggable backends (:mod:`repro.rmesh.backends`), the
sweep warm-start layer (:mod:`repro.pdn.sweep`), the synthetic stress
workloads (:mod:`repro.rmesh.workloads`), and the ``IRDropResult`` /
``SolverError`` paths of :mod:`repro.rmesh.solve` that predate this PR
but were previously untested.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ConfigurationError, SolverError
from repro.geometry import Point
from repro.obs import metrics as obs_metrics
from repro.pdn.config import RDLScope
from repro.pdn.plan import PlanDiff
from repro.pdn.sweep import SweepSolveSession, knob_only_diff
from repro.perf.cache import cached_build_stack, clear_caches
from repro.rmesh.backends import (
    BACKENDS,
    CGOperator,
    DirectOperator,
    EscalatingOperator,
    FactorPreconditioner,
    JacobiPreconditioner,
    make_operator,
    make_preconditioner,
    resolve_backend,
)
from repro.rmesh.solve import IRDropResult, StackSolver
from repro.rmesh.workloads import synthetic_workload, workload_for_nodes

#: A mesh big enough that jacobi-CG takes real iterations, small enough
#: that every solve here is milliseconds.
WORKLOAD = synthetic_workload(12, 12, layers=2, bump_every=4, hotspots=3)


def _spd_matrix(n: int = 16) -> sp.csc_matrix:
    """A tiny SPD test system (1-D resistor chain grounded at node 0)."""
    main = np.full(n, 2.0)
    main[0] += 1.0  # supply link -> nonsingular
    off = np.full(n - 1, -1.0)
    return sp.diags([off, main, off], [-1, 0, 1], format="csc")


@pytest.fixture(autouse=True)
def _clean_backend_env(monkeypatch):
    for var in ("REPRO_SOLVER", "REPRO_CG_PRECOND", "REPRO_CG_RTOL",
                "REPRO_CG_MAXITER", "REPRO_RESIDUAL_EVERY"):
        monkeypatch.delenv(var, raising=False)


# -- backend resolution -------------------------------------------------------


def test_resolve_backend_defaults_to_direct():
    assert resolve_backend() == "direct"
    assert resolve_backend(None) == "direct"


def test_resolve_backend_env(monkeypatch):
    monkeypatch.setenv("REPRO_SOLVER", "cg")
    assert resolve_backend() == "cg"
    # Explicit argument beats the environment.
    assert resolve_backend("direct") == "direct"


def test_resolve_backend_normalizes_case():
    assert resolve_backend(" CG ") == "cg"


def test_resolve_backend_rejects_unknown(monkeypatch):
    with pytest.raises(ConfigurationError):
        resolve_backend("superlu")
    monkeypatch.setenv("REPRO_SOLVER", "nope")
    with pytest.raises(ConfigurationError):
        resolve_backend()


def test_invalid_cg_precond_env_defaults(monkeypatch):
    # Env knobs warn-and-default instead of raising mid-sweep: a typo'd
    # REPRO_CG_PRECOND must not throw away a half-finished run.
    monkeypatch.setenv("REPRO_CG_PRECOND", "ilu")
    op = CGOperator(_spd_matrix())
    assert op.preconditioner.kind == "factor"


# -- preconditioners ----------------------------------------------------------


def test_jacobi_rejects_nonpositive_diagonal():
    bad = sp.diags([1.0, 0.0, 1.0]).tocsc()
    with pytest.raises(SolverError):
        JacobiPreconditioner(bad)


def test_preconditioner_compatibility_is_shape_based():
    pre = FactorPreconditioner(_spd_matrix(16))
    assert pre.compatible_with(_spd_matrix(16))
    assert not pre.compatible_with(_spd_matrix(17))


def test_factor_preconditioner_is_exact_inverse():
    matrix = _spd_matrix()
    pre = FactorPreconditioner(matrix)
    rhs = np.linspace(1.0, 2.0, matrix.shape[0])
    x = pre.operator() @ rhs
    assert np.allclose(matrix @ x, rhs)


def test_make_preconditioner_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        make_preconditioner("ilu", _spd_matrix())


# -- operators ----------------------------------------------------------------


def test_make_operator_direct():
    op = make_operator("direct", _spd_matrix())
    assert isinstance(op, DirectOperator)
    assert op.preconditioner is None


def test_make_operator_rejects_unknown():
    with pytest.raises(ConfigurationError):
        make_operator("gauss-seidel", _spd_matrix())


def test_warm_from_reuses_compatible_preconditioner():
    matrix = _spd_matrix()
    cold = make_operator("cg", matrix)
    assert not cold.reused_preconditioner
    warm = make_operator("cg", matrix, warm_from=cold)
    assert warm.reused_preconditioner
    assert warm.preconditioner is cold.preconditioner


def test_warm_from_shape_mismatch_builds_fresh():
    cold = make_operator("cg", _spd_matrix(16))
    warm = make_operator("cg", _spd_matrix(17), warm_from=cold)
    assert not warm.reused_preconditioner
    assert warm.preconditioner is not cold.preconditioner


def test_cg_exact_x0_short_circuits():
    matrix = _spd_matrix(64)
    rhs = np.linspace(0.0, 1.0, 64)
    op = CGOperator(matrix, precond_kind="jacobi")
    exact = op.solve(rhs)
    cold_iters = op.iterations
    assert cold_iters > 0
    op.solve(rhs, x0=exact)
    assert op.iterations < cold_iters
    assert op.total_iterations == cold_iters + op.iterations


def test_cg_raises_on_nonconvergence():
    big = synthetic_workload(16, 16, layers=2, bump_every=8)
    matrix = big.model.conductance_matrix().tocsc()
    op = CGOperator(matrix, precond_kind="jacobi", maxiter=2)
    with pytest.raises(SolverError):
        op.solve(big.currents)


# -- StackSolver across backends ---------------------------------------------


def test_backends_agree_on_max_ir():
    direct = StackSolver(WORKLOAD.model, backend="direct")
    reference = direct.solve_currents(WORKLOAD.currents)
    for backend in BACKENDS:
        solver = StackSolver(WORKLOAD.model, backend=backend)
        result = solver.solve_currents(WORKLOAD.currents)
        rel = abs(result.max_drop() - reference.max_drop()) / reference.max_drop()
        assert rel <= 1e-6, f"{backend}: rel err {rel:.2e}"
        assert result.backend == backend


def test_iterative_result_carries_provenance():
    solver = StackSolver(WORKLOAD.model, backend="cg")
    result = solver.solve_currents(WORKLOAD.currents)
    assert result.backend == "cg"
    assert result.iterations >= 1
    assert solver.last_iterations == result.iterations


def test_env_backend_reaches_stack_solver(monkeypatch):
    monkeypatch.setenv("REPRO_SOLVER", "cg")
    solver = StackSolver(WORKLOAD.model)
    assert solver.backend == "cg"
    assert isinstance(solver.operator, EscalatingOperator)
    assert isinstance(solver.operator.inner, CGOperator)


# -- SolverError paths --------------------------------------------------------


def test_solve_currents_shape_mismatch():
    solver = StackSolver(WORKLOAD.model)
    with pytest.raises(SolverError):
        solver.solve_currents(np.zeros(WORKLOAD.num_nodes + 1))


def test_solve_currents_rejects_negative_loads():
    solver = StackSolver(WORKLOAD.model)
    bad = WORKLOAD.currents.copy()
    bad[0] = -1e-3
    with pytest.raises(SolverError) as err:
        solver.solve_currents(bad)
    assert "negative" in str(err.value)


def test_solve_currents_rejects_nonfinite_drops(monkeypatch):
    solver = StackSolver(WORKLOAD.model)
    n = WORKLOAD.num_nodes
    monkeypatch.setattr(
        solver._op, "solve", lambda rhs, x0=None: np.full(n, np.nan)
    )
    with pytest.raises(SolverError) as err:
        solver.solve_currents(WORKLOAD.currents)
    assert "non-finite" in str(err.value)


def test_solve_block_shape_checks():
    solver = StackSolver(WORKLOAD.model)
    with pytest.raises(SolverError):
        solver.solve_block(WORKLOAD.currents)  # 1-D
    with pytest.raises(SolverError):
        solver.solve_block(np.zeros((WORKLOAD.num_nodes + 1, 2)))
    with pytest.raises(SolverError):
        solver.solve_block(np.full((WORKLOAD.num_nodes, 2), -1e-3))


def test_solve_block_empty_batch():
    solver = StackSolver(WORKLOAD.model)
    block = solver.solve_block(np.empty((WORKLOAD.num_nodes, 0)))
    assert block.shape == (WORKLOAD.num_nodes, 0)
    assert solver.solve_many(np.empty((WORKLOAD.num_nodes, 0))) == []


# -- batched solves: layout and bitwise contract ------------------------------


def _current_batch(k: int = 3) -> np.ndarray:
    return np.column_stack(
        [WORKLOAD.currents * scale for scale in np.linspace(0.5, 1.5, k)]
    )


def test_solve_block_is_fortran_ordered():
    solver = StackSolver(WORKLOAD.model)
    block = solver.solve_block(_current_batch())
    assert block.flags.f_contiguous


def test_solve_block_matches_per_column_solves():
    batch = _current_batch()
    solver = StackSolver(WORKLOAD.model)
    block = solver.solve_block(batch)
    for i in range(batch.shape[1]):
        single = solver.solve_currents(batch[:, i])
        np.testing.assert_array_equal(block[:, i], single.drops)


def test_solve_many_returns_views_into_one_block():
    solver = StackSolver(WORKLOAD.model)
    results = solver.solve_many(_current_batch())
    bases = {id(r.drops.base) for r in results}
    assert results[0].drops.base is not None
    assert len(bases) == 1  # zero-copy columns of one shared block


# -- residual sampling --------------------------------------------------------


def _residual_count() -> int:
    hist = obs_metrics.snapshot()["histograms"].get("solver.residual_norm")
    return hist["count"] if hist else 0


def test_residual_gauge_is_sampled(monkeypatch):
    monkeypatch.setenv("REPRO_RESIDUAL_EVERY", "4")
    solver = StackSolver(WORKLOAD.model)
    before = _residual_count()
    for _ in range(8):
        solver.solve_currents(WORKLOAD.currents)
    assert _residual_count() - before == 2  # solves 0 and 4
    assert obs_metrics.get_gauge("solver.residual_norm") < 1e-8


def test_residual_every_one_restores_always_on(monkeypatch):
    monkeypatch.setenv("REPRO_RESIDUAL_EVERY", "1")
    solver = StackSolver(WORKLOAD.model)
    before = _residual_count()
    for _ in range(3):
        solver.solve_currents(WORKLOAD.currents)
    assert _residual_count() - before == 3


def test_residual_every_malformed_warns_and_defaults(monkeypatch):
    from repro import envcfg
    from repro.rmesh.solve import RESIDUAL_SAMPLE_EVERY, _residual_every

    envcfg.reset_warnings()
    monkeypatch.setenv("REPRO_RESIDUAL_EVERY", "abc")
    before = obs_metrics.snapshot()
    assert _residual_every() == RESIDUAL_SAMPLE_EVERY
    solver = StackSolver(WORKLOAD.model)
    solver.solve_currents(WORKLOAD.currents)  # used to raise ValueError
    delta = obs_metrics.diff(before, obs_metrics.snapshot())
    assert delta["counters"].get("env.invalid_values") == 1


def test_residual_every_below_one_clamps_to_always_on(monkeypatch):
    from repro.rmesh.solve import _residual_every

    monkeypatch.setenv("REPRO_RESIDUAL_EVERY", "0")
    assert _residual_every() == 1
    monkeypatch.setenv("REPRO_RESIDUAL_EVERY", "-3")
    assert _residual_every() == 1


def test_cheap_counters_recorded_even_when_unsampled(monkeypatch):
    monkeypatch.setenv("REPRO_RESIDUAL_EVERY", "1000")
    solver = StackSolver(WORKLOAD.model)
    before = obs_metrics.snapshot()
    for _ in range(3):
        solver.solve_currents(WORKLOAD.currents)
    delta = obs_metrics.diff(before, obs_metrics.snapshot())
    assert delta["counters"].get("solver.rhs_solved") == 3


def test_sampling_rate_does_not_change_results(monkeypatch):
    monkeypatch.setenv("REPRO_RESIDUAL_EVERY", "1")
    always = StackSolver(WORKLOAD.model).solve_currents(WORKLOAD.currents)
    monkeypatch.setenv("REPRO_RESIDUAL_EVERY", "1000")
    sampled = StackSolver(WORKLOAD.model).solve_currents(WORKLOAD.currents)
    np.testing.assert_array_equal(always.drops, sampled.drops)


# -- IRDropResult helpers -----------------------------------------------------


def test_worst_node_location_maps_back_to_grid():
    model = WORKLOAD.model
    top = WORKLOAD.load_key
    drops = np.zeros(model.num_nodes)
    sl = model.layer_slice(top)
    drops[sl.start] = 1.0  # local node 0 -> grid (0, 0)
    result = IRDropResult(model=model, drops=drops, solve_time=0.0)
    key, point = result.worst_node_location()
    assert key == top
    grid = model.layer_grid(top)
    origin = model.layer_origin(top)
    expected = grid.node_point(0, 0)
    assert point == Point(expected.x + origin.x, expected.y + origin.y)


def test_ascii_heatmap_shape_and_intensity():
    solver = StackSolver(WORKLOAD.model)
    result = solver.solve_currents(WORKLOAD.currents)
    art = result.ascii_heatmap(WORKLOAD.load_key)
    lines = art.splitlines()
    assert lines[0].startswith(f"{WORKLOAD.load_key}: max ")
    assert len(lines) == 1 + WORKLOAD.ny  # header + one row per y
    assert all(len(line) == WORKLOAD.nx for line in lines[1:])
    assert "@" in art  # the peak cell saturates the scale


def test_ascii_heatmap_flat_field():
    model = WORKLOAD.model
    result = IRDropResult(
        model=model, drops=np.zeros(model.num_nodes), solve_time=0.0
    )
    art = result.ascii_heatmap(WORKLOAD.load_key)
    body = art.splitlines()[1:]
    assert all(set(line) <= {" "} for line in body)


# -- synthetic workloads ------------------------------------------------------


def test_synthetic_workload_is_deterministic():
    a = synthetic_workload(10, 8, layers=2, seed=7)
    b = synthetic_workload(10, 8, layers=2, seed=7)
    np.testing.assert_array_equal(a.currents, b.currents)
    c = synthetic_workload(10, 8, layers=2, seed=8)
    assert not np.array_equal(a.currents, c.currents)


def test_synthetic_workload_loads_top_layer_only():
    w = synthetic_workload(10, 8, layers=3)
    assert w.num_nodes == 10 * 8 * 3
    top = w.model.layer_slice(w.load_key)
    mask = np.zeros(w.num_nodes, bool)
    mask[top] = True
    assert np.all(w.currents[~mask] == 0.0)
    assert np.all(w.currents[top] > 0.0)
    assert w.currents.sum() == pytest.approx(0.7)


def test_workload_for_nodes_clears_floor():
    w = workload_for_nodes(5000, layers=3)
    assert w.num_nodes >= 5000
    assert w.num_nodes <= 5000 * 1.2  # smallest square-ish, not huge


def test_workload_validation():
    with pytest.raises(ValueError):
        synthetic_workload(1, 8)
    with pytest.raises(ValueError):
        workload_for_nodes(2)


# -- per-backend solver caching on stacks -------------------------------------


def test_stack_caches_one_solver_per_backend(ddr3_off_bench):
    clear_caches()
    stack = cached_build_stack(
        ddr3_off_bench.stack, ddr3_off_bench.baseline, pitch=0.8
    )
    direct = stack.solver_for("direct")
    assert stack.solver_for("direct") is direct
    assert stack.solver is direct  # default resolves to direct
    cg = stack.solver_for("cg")
    assert cg is not direct
    assert stack.solver_for("cg") is cg


# -- SweepSolveSession --------------------------------------------------------


@pytest.fixture
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def test_session_direct_is_transparent(ddr3_off_bench, fresh_caches):
    bench = ddr3_off_bench
    state = bench.reference_state()
    session = SweepSolveSession(backend="direct", pitch=0.8)
    via_session = session.solve(bench, bench.baseline, state)
    stack = cached_build_stack(bench.stack, bench.baseline, pitch=0.8)
    direct = stack.solve_state(state)
    assert via_session.dram_max_mv == direct.dram_max_mv
    assert session.stats() == {"warm_starts": 0, "cold_starts": 0}


def test_session_warm_starts_knob_sweep(ddr3_off_bench, fresh_caches):
    bench = ddr3_off_bench
    state = bench.reference_state()
    session = SweepSolveSession(backend="cg", pitch=0.8)
    counts = (160, 180, 200)
    for count in counts:
        config = bench.baseline.with_options(tsv_count=count)
        result = session.solve(bench, config, state)
        stack = cached_build_stack(bench.stack, config, pitch=0.8)
        truth = stack.solve_state(state).dram_max_mv
        assert result.dram_max_mv == pytest.approx(truth, rel=1e-6)
    assert session.stats() == {
        "warm_starts": len(counts) - 1,
        "cold_starts": 1,
    }


def test_session_same_plan_reuses_solver(ddr3_off_bench, fresh_caches):
    bench = ddr3_off_bench
    state = bench.reference_state()
    session = SweepSolveSession(backend="cg", pitch=0.8)
    session.solve(bench, bench.baseline, state)
    solver = session._prev_solver
    session.solve(bench, bench.baseline, state)
    assert session._prev_solver is solver
    # The same-plan short-circuit is neither warm nor cold.
    assert session.stats() == {"warm_starts": 0, "cold_starts": 1}


def test_session_layer_change_goes_cold(ddr3_off_bench, fresh_caches):
    bench = ddr3_off_bench
    state = bench.reference_state()
    session = SweepSolveSession(backend="cg", pitch=0.8)
    session.solve(bench, bench.baseline, state)
    assert session._last_drops
    # Enabling RDLs adds layers (AddRDLOp is an AddLayerOp): node
    # numbering changes, so the session must restart its chain.
    rdl_config = bench.baseline.with_options(rdl=RDLScope.ALL)
    session.solve(bench, rdl_config, state)
    assert session.stats()["cold_starts"] == 2
    assert session.stats()["warm_starts"] == 0


def test_session_reset_forgets_chain(ddr3_off_bench, fresh_caches):
    bench = ddr3_off_bench
    session = SweepSolveSession(backend="cg", pitch=0.8)
    session.solve(bench, bench.baseline, bench.reference_state())
    session.reset()
    assert session._prev_plan is None
    assert session._prev_solver is None
    assert not session._last_drops


def test_knob_only_diff_classifies_plans(ddr3_off_bench, fresh_caches):
    bench = ddr3_off_bench
    base = cached_build_stack(bench.stack, bench.baseline, pitch=0.8).plan
    knob = cached_build_stack(
        bench.stack, bench.baseline.with_options(tsv_count=200), pitch=0.8
    ).plan
    rdl = cached_build_stack(
        bench.stack, bench.baseline.with_options(rdl=RDLScope.ALL), pitch=0.8
    ).plan
    assert knob_only_diff(PlanDiff.between(base, knob))
    assert not knob_only_diff(PlanDiff.between(base, rdl))

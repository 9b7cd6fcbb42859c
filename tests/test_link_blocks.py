"""Array-block link storage and SuperLU column-ordering reuse.

``StackModel`` keeps vertical and supply links as read-only numpy
blocks; the direct backend reuses the COLAMD ordering of a sparsity
pattern it has already factorized.  Both must be invisible in the
numbers: identical link arrays, spans, diagnoses and IR drops.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.obs import metrics as obs_metrics
from repro.pdn import diagnose_stack
from repro.pdn.assemble import AssemblySession, assemble
from repro.pdn.stackup import DEFAULT_TECH, PDNStack, plan_stack
from repro.perf.cache import clear_caches
from repro.regress.model import (
    config_from_parts,
    continuous_sample_grid,
    valid_discrete_combos,
)
from repro.rmesh import StackSolver, extract_branches
from repro.rmesh import backends

TSV_COUNTS = (15, 60, 240)


def _assert_blocks_equal(a, b):
    assert len(a) == len(b)
    for col_a, col_b in zip(a, b):
        assert col_a.dtype == col_b.dtype
        assert np.array_equal(col_a, col_b)


@pytest.fixture(scope="module")
def tsv_sweep_plans(ddr3_off_bench):
    bench = ddr3_off_bench
    return [
        plan_stack(bench.stack, bench.baseline.with_options(tsv_count=c))
        for c in TSV_COUNTS
    ]


class TestArrayLinks:
    def test_cold_and_session_models_agree(self, tsv_sweep_plans):
        session = AssemblySession()
        for _ in range(2):  # second pass replays every block from cache
            for plan in tsv_sweep_plans:
                cold = assemble(plan)
                warm = assemble(plan, session=session)
                _assert_blocks_equal(
                    cold.model.link_arrays(), warm.model.link_arrays()
                )
                _assert_blocks_equal(
                    cold.model.supply_arrays(), warm.model.supply_arrays()
                )
                assert cold.op_spans == warm.op_spans
        assert session.stats()["link_blocks"] > 0

    def test_dtypes_and_spans_cover_every_link(self, tsv_sweep_plans):
        model_spans = assemble(tsv_sweep_plans[0])
        model = model_spans.model
        a, b, g = model.link_arrays()
        node, gs = model.supply_arrays()
        assert (a.dtype, b.dtype, g.dtype) == (np.int64, np.int64, np.float64)
        assert (node.dtype, gs.dtype) == (np.int64, np.float64)
        assert len(a) == model.link_count and len(node) == model.supply_count
        spans = model_spans.op_spans
        assert spans[-1].links[1] == model.link_count
        assert spans[-1].supply[1] == model.supply_count
        for prev, nxt in zip(spans, spans[1:]):
            assert prev.links[1] == nxt.links[0]
            assert prev.supply[1] == nxt.supply[0]

    def test_cached_blocks_are_read_only(self, tsv_sweep_plans):
        model = assemble(tsv_sweep_plans[0]).model
        a, b, g = model.links_range(0, model.link_count)
        with pytest.raises(ValueError):
            g[0] = 1.0
        assert np.array_equal(a, model.link_arrays()[0])

    def test_materialized_views_match_arrays(self, tsv_sweep_plans):
        """The branch groups read the model's link blocks as they are."""
        model = assemble(tsv_sweep_plans[1]).model
        branches = extract_branches(model, np.zeros(model.num_nodes))
        a, b, g = model.link_arrays()
        assert len(a) == model.link_count > 0
        assert np.array_equal(branches.links.a, a)
        assert np.array_equal(branches.links.b, b)
        assert np.array_equal(branches.links.g, g)
        node, gs = model.supply_arrays()
        assert len(node) == model.supply_count > 0
        assert np.array_equal(branches.supply.a, node)
        assert np.array_equal(branches.supply.g, gs)

    def test_session_assembled_stack_has_no_orphan_branches(
        self, ddr3_off_bench, tsv_sweep_plans
    ):
        bench = ddr3_off_bench
        session = AssemblySession()
        for plan in tsv_sweep_plans:
            assemble(plan, session=session)
        plan = tsv_sweep_plans[-1]
        assembled = assemble(plan, session=session)
        config = bench.baseline.with_options(tsv_count=TSV_COUNTS[-1])
        stack = PDNStack.from_assembled(
            bench.stack, config, DEFAULT_TECH, plan, assembled
        )
        diag = diagnose_stack(stack, bench.reference_state())
        assert diag.coverage["orphans"] == 0
        assert diag.coverage["attributed"] == diag.coverage["total"]


def _combo_models(bench):
    combo = valid_discrete_combos(bench)[0]
    grid = continuous_sample_grid(bench, tc_points=2)
    return [
        assemble(plan_stack(bench.stack, config_from_parts(bench, combo, *p))).model
        for p in grid
    ]


def _currents(model, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1e-3, model.num_nodes)


class TestOrderingReuse:
    def test_reused_ordering_is_bitwise_cold(self, ddr3_off_bench):
        models = _combo_models(ddr3_off_bench)
        clear_caches()
        before = obs_metrics.snapshot()
        warm = []
        for model in models:
            solver = StackSolver(model, backend="direct")
            currents = _currents(model)
            warm.append(
                (
                    solver.solve_currents(currents).drops,
                    solver.solve_block(np.stack([currents, 2 * currents], 1)),
                )
            )
        counters = obs_metrics.diff(before, obs_metrics.snapshot())["counters"]
        assert counters.get("solver.orderings_computed") == 2
        assert counters.get("solver.orderings_reused") == 16
        for model, (drops, block) in zip(models, warm):
            clear_caches()  # cold: SuperLU orders this matrix itself
            solver = StackSolver(model, backend="direct")
            currents = _currents(model)
            assert np.array_equal(solver.solve_currents(currents).drops, drops)
            cold_block = solver.solve_block(np.stack([currents, 2 * currents], 1))
            assert np.array_equal(cold_block, block)
            assert block.flags.f_contiguous

    def test_clear_caches_empties_ordering_cache(self, ddr3_off_bench):
        model = _combo_models(ddr3_off_bench)[0]
        clear_caches()
        StackSolver(model, backend="direct")
        assert backends.ordering_cache_size() == 1
        clear_caches()
        assert backends.ordering_cache_size() == 0

    def test_cg_backend_does_not_touch_orderings(self, ddr3_off_bench):
        model = _combo_models(ddr3_off_bench)[0]
        clear_caches()
        before = obs_metrics.snapshot()
        solver = StackSolver(model, backend="cg")
        solver.solve_currents(_currents(model))
        counters = obs_metrics.diff(before, obs_metrics.snapshot())["counters"]
        assert backends.ordering_cache_size() == 0
        assert "solver.orderings_computed" not in counters
        assert "solver.orderings_reused" not in counters

    def test_ordering_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(backends, "ORDERING_CACHE_SIZE", 2)
        clear_caches()
        for n in (3, 4, 5):  # three distinct sparsity patterns
            matrix = np.eye(n) * 4.0 - np.eye(n, k=1) - np.eye(n, k=-1)
            backends.DirectOperator(sp.csc_matrix(matrix))
        assert backends.ordering_cache_size() == 2
        clear_caches()

"""The plan pipeline: golden IR, snapshots, replay identity, incremental reuse.

Three independent identity guarantees are pinned here:

* **Physics**: every benchmark/variant solved through config -> plan ->
  assemble -> solve matches the pre-refactor golden IR values *bitwise*
  (``float.hex`` comparison against ``tests/golden/ir_baseline.json``).
* **Structure**: the canonical plan JSON for each benchmark baseline is
  snapshot under ``tests/golden/`` -- any planner change shows up as a
  readable JSON diff plus a plan-hash change, and must be re-blessed.
* **Replay**: session-cached (incremental) assembly produces link lists
  and mesh arrays equal to a cold build of the same plan.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.designs import hmc, off_chip_ddr3, on_chip_ddr3, wide_io
from repro.errors import ConfigurationError
from repro.experiments.base import Row
from repro.floorplan import ddr3_die_floorplan
from repro.obs import metrics as _metrics
from repro.pdn import (
    Bonding,
    BumpLocation,
    RDLScope,
    TSVLocation,
    build_stack,
)
from repro.pdn.assemble import AssemblySession, assemble
from repro.pdn.plan import (
    PLAN_TOUCH_PREFIX,
    StackPlan,
    op_from_dict,
    plans_from_counters,
    record_plan_use,
    validate_plan_dict,
)
from repro.pdn.stackup import build_single_die_stack, plan_stack
from repro.perf.cache import cached_build_stack, clear_caches
from repro.power.model import DDR3_POWER
from repro.power.state import MemoryState

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _pin_direct_backend(monkeypatch):
    """Golden IR values are a *direct-path* contract: the bitwise hex
    comparison must keep passing under a ``REPRO_SOLVER=cg`` test leg,
    so every solve in this module pins the direct backend."""
    monkeypatch.setenv("REPRO_SOLVER", "direct")

FACTORIES = {
    "ddr3_off": off_chip_ddr3,
    "ddr3_on": on_chip_ddr3,
    "wideio": wide_io,
    "hmc": hmc,
}


def _ir_record(stack, state):
    """An IR result as exact hex strings, matching the golden format."""
    r = stack.solve_state(state)
    return {
        "dram_max_mv": r.dram_max_mv.hex(),
        "per_die_mv": {k: v.hex() for k, v in r.per_die_mv.items()},
        "logic_max_mv": (
            r.logic_max_mv.hex() if r.logic_max_mv is not None else None
        ),
        "total_power_mw": r.total_power_mw.hex(),
    }


@pytest.fixture(scope="module")
def golden_ir():
    return json.loads((GOLDEN / "ir_baseline.json").read_text())


# -- golden IR: the pipeline's physics is bitwise-frozen ----------------------


class TestGoldenIR:
    """Every case solved through plan -> assemble matches the golden hex."""

    def test_benchmark_baselines(self, golden_ir):
        for key, factory in FACTORIES.items():
            b = factory()
            stack = build_stack(b.stack, b.baseline)
            assert _ir_record(stack, b.reference_state()) == (
                golden_ir[f"{key}/baseline"]
            ), f"{key}/baseline drifted from golden IR"

    @pytest.mark.parametrize(
        "name, options",
        [
            ("f2f", dict(bonding=Bonding.F2F)),
            ("f2f_rdl_all", dict(bonding=Bonding.F2F, rdl=RDLScope.ALL)),
            ("rdl_bottom", dict(rdl=RDLScope.BOTTOM)),
            ("rdl_all", dict(rdl=RDLScope.ALL)),
            ("wirebond", dict(wire_bond=True)),
            (
                "center_center",
                dict(
                    tsv_location=TSVLocation.CENTER,
                    bump_location=BumpLocation.CENTER,
                ),
            ),
            (
                "distributed_misaligned",
                dict(
                    tsv_location=TSVLocation.DISTRIBUTED, tsv_aligned=False
                ),
            ),
            ("tc240", dict(tsv_count=240)),
        ],
    )
    def test_off_chip_variants(self, golden_ir, ddr3_off_bench, name, options):
        stack = build_stack(
            ddr3_off_bench.stack, ddr3_off_bench.baseline.with_options(**options)
        )
        assert _ir_record(stack, ddr3_off_bench.reference_state()) == (
            golden_ir[f"ddr3_off/{name}"]
        ), f"ddr3_off/{name} drifted from golden IR"

    @pytest.mark.parametrize(
        "name, options",
        [
            ("coupled", dict(dedicated_tsv=False)),
            ("dedicated", dict(dedicated_tsv=True)),
            (
                "misaligned",
                dict(
                    tsv_location=TSVLocation.DISTRIBUTED,
                    tsv_aligned=False,
                    dedicated_tsv=False,
                ),
            ),
        ],
    )
    def test_on_chip_variants(self, golden_ir, ddr3_on_bench, name, options):
        stack = build_stack(
            ddr3_on_bench.stack, ddr3_on_bench.baseline.with_options(**options)
        )
        assert _ir_record(stack, ddr3_on_bench.reference_state()) == (
            golden_ir[f"ddr3_on/{name}"]
        ), f"ddr3_on/{name} drifted from golden IR"

    def test_single_die(self, golden_ir):
        fp = ddr3_die_floorplan()
        stack = build_single_die_stack(fp, DDR3_POWER)
        state = MemoryState.from_counts((2,), fp)
        assert _ir_record(stack, state) == golden_ir["ddr3_2d/single"]


# -- golden plans: the planner's output is snapshot-frozen --------------------


class TestGoldenPlans:
    @pytest.mark.parametrize("key", sorted(FACTORIES))
    def test_snapshot_matches(self, key):
        """Planned JSON is byte-identical to the committed snapshot."""
        b = FACTORIES[key]()
        plan = plan_stack(b.stack, b.baseline)
        assert plan.to_json() == (GOLDEN / f"plan_{key}.json").read_text(), (
            f"plan for {key} changed; if intentional, regenerate the "
            f"tests/golden/plan_{key}.json snapshot and plan_hashes.json"
        )

    def test_hashes_match_registry(self):
        hashes = json.loads((GOLDEN / "plan_hashes.json").read_text())
        assert sorted(hashes) == sorted(FACTORIES)
        for key, factory in FACTORIES.items():
            b = factory()
            assert plan_stack(b.stack, b.baseline).plan_hash == hashes[key]

    @pytest.mark.parametrize("key", sorted(FACTORIES))
    def test_committed_snapshots_validate(self, key):
        """The CI schema check, as a test: committed files stay loadable."""
        data = json.loads((GOLDEN / f"plan_{key}.json").read_text())
        validate_plan_dict(data)
        plan = StackPlan.from_dict(data)
        hashes = json.loads((GOLDEN / "plan_hashes.json").read_text())
        assert plan.plan_hash == hashes[key]


# -- serialization ------------------------------------------------------------


class TestPlanSerialization:
    def test_json_round_trip(self, ddr3_off_bench):
        plan = plan_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        back = StackPlan.from_json(plan.to_json())
        assert back == plan
        assert back.plan_hash == plan.plan_hash
        assert back.canonical_json() == plan.canonical_json()

    def test_hash_is_stable_across_instances(self, ddr3_off_bench):
        a = plan_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        b = plan_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        assert a is not b
        assert a == b
        assert a.plan_hash == b.plan_hash

    def test_hash_changes_with_structure(self, ddr3_off_bench):
        base = plan_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        tc240 = plan_stack(
            ddr3_off_bench.stack,
            ddr3_off_bench.baseline.with_options(tsv_count=240),
        )
        assert base.plan_hash != tc240.plan_hash

    def test_summary_and_counts(self, ddr3_off_bench):
        plan = plan_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        summary = plan.summary()
        assert summary["benchmark"] == "ddr3_off"
        assert summary["plan_hash"] == plan.plan_hash
        assert summary["num_ops"] == len(plan.ops)
        assert sum(plan.op_counts().values()) == len(plan.ops)
        assert plan.num_nodes() > 0
        assert len(plan.layer_keys()) == plan.op_counts()["add_layer"] + (
            plan.op_counts().get("add_rdl", 0)
        )

    def test_validate_rejects_missing_field(self, ddr3_off_bench):
        data = plan_stack(
            ddr3_off_bench.stack, ddr3_off_bench.baseline
        ).to_dict()
        del data["pitch"]
        with pytest.raises(ConfigurationError, match="pitch"):
            validate_plan_dict(data)

    def test_validate_rejects_bad_schema_version(self, ddr3_off_bench):
        data = plan_stack(
            ddr3_off_bench.stack, ddr3_off_bench.baseline
        ).to_dict()
        data["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="schema_version"):
            validate_plan_dict(data)

    def test_validate_rejects_unknown_op_kind(self, ddr3_off_bench):
        data = plan_stack(
            ddr3_off_bench.stack, ddr3_off_bench.baseline
        ).to_dict()
        data["ops"][0] = dict(data["ops"][0], kind="warp_drive")
        with pytest.raises(ConfigurationError, match="warp_drive"):
            validate_plan_dict(data)

    def test_op_from_dict_rejects_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="mismatched point"):
            op_from_dict(
                {
                    "kind": "connect_at_points",
                    "key_a": "a",
                    "key_b": "b",
                    "xs": [0.0, 1.0],
                    "ys": [0.0, 1.0],
                    "conductances": [1.0],
                    "role": "link",
                }
            )

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            StackPlan.from_json("{not json")
        with pytest.raises(ConfigurationError, match="object"):
            StackPlan.from_json("[1, 2]")


# -- diffs --------------------------------------------------------------------


class TestPlanDiff:
    def test_identical(self, ddr3_off_bench):
        a = plan_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        b = plan_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        diff = a.diff(b)
        assert diff.identical
        assert diff.unchanged == len(a.ops)
        assert "identical" in diff.describe()

    def test_tsv_sweep_touches_only_tsv_ops(self, ddr3_off_bench):
        """A tsv_count change must leave every layer op unchanged --
        the structural fact incremental reassembly exploits."""
        a = plan_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        b = plan_stack(
            ddr3_off_bench.stack,
            ddr3_off_bench.baseline.with_options(tsv_count=240),
        )
        diff = a.diff(b)
        assert not diff.identical
        changed_kinds = {type(op).kind for op in diff.removed + diff.added}
        assert "add_layer" not in changed_kinds
        assert "add_rdl" not in changed_kinds
        n_layers = len(a.layer_keys())
        assert diff.unchanged >= n_layers
        assert f"-{len(diff.removed)} +{len(diff.added)}" in diff.describe()


# -- incremental reassembly ---------------------------------------------------


def _model_fingerprint(model):
    """Everything that determines the conductance matrix, exactly."""
    layers = []
    for key in model.layer_keys:
        entry = model.layer_entry(key)
        layers.append(
            (key, entry.offset, entry.origin, entry.mesh.gx, entry.mesh.gy)
        )
    return layers, model.link_arrays(), model.supply_arrays()


def _assert_models_equal(a, b):
    fa, fb = _model_fingerprint(a), _model_fingerprint(b)
    assert len(fa[0]) == len(fb[0])
    for (ka, oa, pa, gxa, gya), (kb, ob, pb, gxb, gyb) in zip(fa[0], fb[0]):
        assert (ka, oa, pa) == (kb, ob, pb)
        assert np.array_equal(gxa, gxb)
        assert np.array_equal(gya, gyb)
    for col_a, col_b in zip(fa[1] + fa[2], fb[1] + fb[2]):
        assert col_a.dtype == col_b.dtype
        assert np.array_equal(col_a, col_b)


class TestIncrementalReassembly:
    def test_session_reuses_layers_across_tsv_sweep(self, ddr3_off_bench):
        session = AssemblySession()
        counts = (15, 60, 240)
        plans = [
            plan_stack(
                ddr3_off_bench.stack,
                ddr3_off_bench.baseline.with_options(tsv_count=c),
            )
            for c in counts
        ]
        before = _metrics.snapshot()
        assemble(plans[0], session=session)
        first = _metrics.diff(before, _metrics.snapshot())["counters"]
        assert first.get("assemble.layers_built", 0) == len(
            plans[0].layer_keys()
        )
        mid = _metrics.snapshot()
        for plan in plans[1:]:
            assemble(plan, session=session)
        rest = _metrics.diff(mid, _metrics.snapshot())["counters"]
        # Every layer of every subsequent sweep point replays from cache.
        assert rest.get("assemble.layers_built", 0) == 0
        assert rest.get("assemble.layers_reused", 0) == (
            sum(len(p.layer_keys()) for p in plans[1:])
        )
        assert rest.get("assemble.connects_reused", 0) > 0

    def test_session_assembly_is_bitwise_equal_to_cold(self, ddr3_off_bench):
        session = AssemblySession()
        for count in (15, 60):
            plan = plan_stack(
                ddr3_off_bench.stack,
                ddr3_off_bench.baseline.with_options(tsv_count=count),
            )
            warm = assemble(plan, session=session)
            cold = assemble(plan)
            _assert_models_equal(warm.model, cold.model)

    def test_session_stats_and_clear(self, ddr3_off_bench):
        session = AssemblySession()
        plan = plan_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        assemble(plan, session=session)
        stats = session.stats()
        assert stats["meshes"] == len(plan.layer_keys())
        assert stats["link_blocks"] > 0
        assert stats["supply_blocks"] >= 1
        session.clear()
        assert all(v == 0 for v in session.stats().values())


# -- content-addressed caching ------------------------------------------------


class TestContentAddressedCache:
    def test_equivalent_configs_share_assembled_stack(self, ddr3_off_bench):
        """Off-chip stacks ignore ``dedicated_tsv``: both configs resolve
        to the same plan hash, so both wrappers share one assembled model
        (and hence one factorization) while staying distinct wrappers."""
        clear_caches()
        try:
            spec = ddr3_off_bench.stack
            cfg_a = ddr3_off_bench.baseline.with_options(dedicated_tsv=False)
            cfg_b = ddr3_off_bench.baseline.with_options(dedicated_tsv=True)
            a = cached_build_stack(spec, cfg_a)
            b = cached_build_stack(spec, cfg_b)
            assert a is not b
            assert a.plan_hash == b.plan_hash
            assert a.assembled is b.assembled
            assert a.solver is b.solver
        finally:
            clear_caches()

    def test_default_pitch_is_content_addressed(self, ddr3_off_bench):
        """pitch=None resolves to tech.mesh_pitch: the plans hash equal,
        so the cache returns the *same* wrapper for both spellings."""
        clear_caches()
        try:
            a = cached_build_stack(
                ddr3_off_bench.stack, ddr3_off_bench.baseline, pitch=None
            )
            b = cached_build_stack(
                ddr3_off_bench.stack, ddr3_off_bench.baseline, pitch=0.4
            )
            assert a is b
        finally:
            clear_caches()


# -- plan provenance ----------------------------------------------------------


class TestPlanProvenance:
    def test_record_plan_use_feeds_counters(self, ddr3_off_bench):
        plan = plan_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        before = _metrics.snapshot()
        record_plan_use(plan)
        delta = _metrics.diff(before, _metrics.snapshot())["counters"]
        assert delta.get(PLAN_TOUCH_PREFIX + plan.plan_hash) == 1
        assert plans_from_counters(delta) == {plan.plan_hash: "ddr3_off"}

    def test_unknown_hash_degrades_to_itself(self):
        counters = {PLAN_TOUCH_PREFIX + "feedfacecafebeef": 3, "other": 1}
        assert plans_from_counters(counters) == {
            "feedfacecafebeef": "feedfacecafebeef"
        }

    def test_manifest_carries_plans(self, ddr3_off_bench):
        from repro.obs.manifest import RunManifest, build_manifest

        plan = plan_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        before = _metrics.snapshot()
        record_plan_use(plan)
        manifest = build_manifest(
            experiment_id="test.plan",
            title="plan provenance",
            config={},
            duration_s=0.0,
            metrics_snapshot=_metrics.diff(before, _metrics.snapshot()),
        )
        assert manifest.plans == {plan.plan_hash: "ddr3_off"}
        back = RunManifest.from_dict(manifest.to_dict())
        assert back.plans == manifest.plans

    def test_stack_exposes_plan_hash(self, ddr3_stack):
        assert ddr3_stack.plan_hash is not None
        assert len(ddr3_stack.plan_hash) == 16


# -- satellite: Row.deviation_percent -----------------------------------------


class TestDeviationPercent:
    def test_normal(self):
        row = Row("r", paper={"mv": 20.0}, model={"mv": 25.0})
        assert row.deviation_percent("mv") == pytest.approx(25.0)

    def test_zero_paper_value_is_undefined(self):
        row = Row("r", paper={"mv": 0.0}, model={"mv": 5.0})
        assert row.deviation_percent("mv") is None

    def test_bools_are_not_numbers(self):
        row = Row("r", paper={"ok": True}, model={"ok": True})
        assert row.deviation_percent("ok") is None
        row = Row("r", paper={"mv": 1.0}, model={"mv": True})
        assert row.deviation_percent("mv") is None

    def test_non_numeric_returns_none(self):
        row = Row("r", paper={"tag": "edge"}, model={"tag": "center"})
        assert row.deviation_percent("tag") is None
        assert row.deviation_percent("missing") is None

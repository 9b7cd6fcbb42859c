"""Plan hashes survive the shallow op serialization.

``PlanOp.to_dict`` builds its mapping field by field instead of through
``dataclasses.asdict``.  The reference below is the ``asdict``-based
serialization it replaced; every plan here must produce byte-identical
canonical JSON (and therefore the same ``plan_hash``) under both.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import asdict

import pytest

from repro.pdn.plan import (
    PLAN_SCHEMA_VERSION,
    GridSpec,
    StackPlan,
    TSVOp,
    clear_hash_memo,
)
from repro.pdn.stackup import plan_stack
from repro.regress.model import (
    config_from_parts,
    continuous_sample_grid,
    valid_discrete_combos,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _reference_canonical_json(plan: StackPlan) -> str:
    """The pre-refactor canonical JSON: ``asdict`` over every op."""
    ops = []
    for op in plan.ops:
        data = {"kind": type(op).kind}
        data.update(asdict(op))
        ops.append(data)
    body = {
        "schema_version": PLAN_SCHEMA_VERSION,
        "benchmark": plan.benchmark,
        "pitch": plan.pitch,
        "num_dram_dies": plan.num_dram_dies,
        "dram_grid": asdict(plan.dram_grid),
        "dram_origin": list(plan.dram_origin),
        "logic_grid": asdict(plan.logic_grid) if plan.logic_grid else None,
        "ops": ops,
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _assert_same_bytes(plan: StackPlan) -> None:
    reference = _reference_canonical_json(plan)
    assert plan.canonical_json() == reference
    expected = hashlib.sha256(reference.encode()).hexdigest()[:16]
    assert plan.plan_hash == expected


def _golden_plan_paths():
    return sorted(
        p
        for p in glob.glob(os.path.join(GOLDEN, "plan_*.json"))
        if os.path.basename(p) != "plan_hashes.json"
    )


@pytest.mark.parametrize(
    "path", _golden_plan_paths(), ids=lambda p: os.path.basename(p)
)
def test_golden_plans_hash_identically(path):
    with open(path, encoding="utf-8") as fh:
        plan = StackPlan.from_json(fh.read())
    _assert_same_bytes(plan)
    registry = json.load(open(os.path.join(GOLDEN, "plan_hashes.json")))
    key = os.path.basename(path)[len("plan_"):-len(".json")]
    assert plan.plan_hash == registry[key]


def test_table9_combo_plans_hash_identically(ddr3_off_bench):
    bench = ddr3_off_bench
    combo = valid_discrete_combos(bench)[0]
    grid = continuous_sample_grid(bench, tc_points=2)
    assert len(grid) == 18
    hashes = set()
    for m2, m3, tc in grid:
        plan = plan_stack(bench.stack, config_from_parts(bench, combo, m2, m3, tc))
        _assert_same_bytes(plan)
        hashes.add(plan.plan_hash)
    assert len(hashes) == 18


def test_on_chip_plan_with_logic_grid_hashes_identically(ddr3_on_bench):
    plan = plan_stack(ddr3_on_bench.stack, ddr3_on_bench.baseline)
    assert plan.logic_grid is not None
    _assert_same_bytes(plan)


def test_op_dict_matches_asdict_key_order(ddr3_on_bench):
    """``to_json`` (unsorted) keeps the field order ``asdict`` gave."""
    plan = plan_stack(ddr3_on_bench.stack, ddr3_on_bench.baseline)
    for op in plan.ops:
        reference = {"kind": type(op).kind}
        reference.update(asdict(op))
        assert json.dumps(op.to_dict()) == json.dumps(reference)


def _single_tsv_plan(values):
    op = TSVOp(key_a="a", key_b="b", xs=values, ys=values, conductances=values)
    return StackPlan(
        benchmark="memo",
        pitch=1.0,
        num_dram_dies=1,
        dram_grid=GridSpec(0.0, 0.0, 1.0, 1.0, 2, 2),
        dram_origin=(0.0, 0.0),
        logic_grid=None,
        ops=(op,),
    )


@pytest.mark.parametrize(
    "first, second",
    [
        ((0.0,) * 40, (0.0,) * 20 + (-0.0,) * 20),
        ((1.0,) * 40, (1.0,) * 39 + (1,)),  # JSON writes the int as 1
    ],
    ids=["signed-zero", "int-member"],
)
def test_memoized_coordinates_keep_exact_bytes(first, second):
    """Long coordinate tuples are memoized by exact bytes: a tuple equal
    in value to a memoized one, but written differently in JSON, must
    not reuse its entry."""
    assert first == second
    clear_hash_memo()
    for values in (first, second, first):
        _assert_same_bytes(_single_tsv_plan(values))

"""Extension experiment: TSV current crowding across design options.

Not a paper table -- the paper cites current crowding qualitatively
(section 3.2, reference [6]); this driver quantifies it with the branch
currents of :func:`repro.rmesh.branches.extract_branches` (the path
``repro3d explain`` checks against KCL): per-TSV current distribution at
the stressed die interface for the main design options.
"""

from __future__ import annotations

from repro.designs import off_chip_ddr3
from repro.experiments.base import ExperimentResult, Row, register
from repro.pdn import Bonding, BumpLocation, TSVLocation, build_stack
from repro.power import MemoryState
from repro.rmesh.branches import extract_branches


@register("ext_crowding")
def run(fast: bool = True) -> ExperimentResult:
    """Quantify per-TSV current crowding (extension)."""
    bench = off_chip_ddr3()
    state = MemoryState.from_string("0-0-0-2", bench.stack.dram_floorplan)
    options = {
        "edge TSVs (baseline)": bench.baseline,
        "edge TSVs, 240x": bench.baseline.with_options(tsv_count=240),
        "center cluster": bench.baseline.with_options(
            tsv_location=TSVLocation.CENTER, bump_location=BumpLocation.CENTER
        ),
        "F2F pairs": bench.baseline.with_options(bonding=Bonding.F2F),
    }
    rows = []
    for label, config in options.items():
        stack = build_stack(bench.stack, config)
        result = stack.solve_state(state)
        branches = extract_branches(result.raw.model, result.raw.drops)
        # The interface feeding the active top die is the stressed one.
        report = branches.interface("dram3/M3", "dram4/M3").crowding()
        supply = branches.supply.crowding()
        rows.append(
            Row(
                label=label,
                model={
                    "links": report.currents.size,
                    "worst_link_ma": report.max_a * 1e3,
                    "crowding_factor": report.crowding_factor,
                    "gini": report.gini,
                    "supply_crowding": supply.crowding_factor,
                    "ir_mv": result.dram_max_mv,
                },
            )
        )
    return ExperimentResult(
        experiment_id="ext_crowding",
        title="TSV current crowding across design options (extension)",
        rows=rows,
        notes=[
            "crowding factor = worst link current / uniform share; the "
            "F2F interface replaces discrete TSVs with dense bond vias, "
            "spreading the same current over far more links",
        ],
    )

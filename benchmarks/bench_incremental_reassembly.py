"""Incremental sweep reassembly vs cold rebuilds (fig5-style TSV sweep).

The fig5 experiment sweeps TSV count over the off-chip DDR3 stack: every
sweep point changes only the TSV connect ops in the build plan while the
layer meshes (and most connects) stay identical.  The incremental
assembler (:class:`repro.pdn.assemble.AssemblySession`) caches per-op
artifacts keyed by the ops themselves, so each subsequent sweep point
replays its unchanged layers from cache instead of re-rasterizing them.

Two legs over the same plans:

* **cold** -- ``assemble(plan)`` per point, no session: every mesh and
  link block is rebuilt from its op (the pre-refactor behaviour);
* **incremental** -- one shared session across the sweep.

The legs must agree *bitwise* (identical link arrays, supply arrays, and
mesh conductance arrays) -- the session trades no accuracy: a cache hit
contributes the same bytes a rebuild would.  The speedup is asserted at
>= 1.3x (about 2.4-2.9x on a 2-vCPU VM; the margin absorbs CI timing
noise) and is recorded as the ``bench.incremental_reassembly.speedup``
gauge plus a JSON artifact under ``benchmarks/results/``.

Run directly (``python benchmarks/bench_incremental_reassembly.py``) or
under pytest; ``REPRO_BENCH_SMOKE=1`` shortens the sweep.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.bench import register_bench

RESULTS_DIR = Path(__file__).parent / "results"

#: fig5's sweep axis (TSV count per die).
FULL_COUNTS = (15, 33, 60, 120, 240)
SMOKE_COUNTS = (15, 60, 240)

#: Minimum accepted incremental-over-cold speedup; the observed value is
#: about twice this, so a failure here means the session stopped reusing
#: artifacts, not that the machine was slow.
MIN_SPEEDUP = 1.3


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _models_bitwise_equal(a, b) -> bool:
    """Exact structural equality of two assembled stack models."""
    if a.layer_keys != b.layer_keys:
        return False
    for key in a.layer_keys:
        ea, eb = a.layer_entry(key), b.layer_entry(key)
        if (ea.offset, ea.origin) != (eb.offset, eb.origin):
            return False
        if not np.array_equal(ea.mesh.gx, eb.mesh.gx):
            return False
        if not np.array_equal(ea.mesh.gy, eb.mesh.gy):
            return False
    return all(
        col_a.dtype == col_b.dtype and np.array_equal(col_a, col_b)
        for col_a, col_b in zip(
            a.link_arrays() + a.supply_arrays(),
            b.link_arrays() + b.supply_arrays(),
        )
    )


def run_benchmark() -> dict:
    from repro.designs import off_chip_ddr3
    from repro.obs import metrics as _metrics
    from repro.pdn.assemble import AssemblySession, assemble
    from repro.pdn.plan import record_plan_use
    from repro.pdn.stackup import plan_stack

    bench = off_chip_ddr3()
    counts = SMOKE_COUNTS if _smoke() else FULL_COUNTS
    plans = [
        plan_stack(bench.stack, bench.baseline.with_options(tsv_count=c))
        for c in counts
    ]
    for plan in plans:
        record_plan_use(plan)
    repeats = 3

    # Warm-up outside the timed region (imports, allocator, BLAS).
    assemble(plans[0])

    # --- cold: every sweep point rebuilds all artifacts ---------------------
    t0 = time.perf_counter()
    cold_models = None
    for _ in range(repeats):
        cold_models = [assemble(p).model for p in plans]
    cold_s = time.perf_counter() - t0

    # --- incremental: one shared session across the sweep -------------------
    session = AssemblySession()
    before = _metrics.snapshot()
    t0 = time.perf_counter()
    warm_models = None
    for _ in range(repeats):
        warm_models = [assemble(p, session=session).model for p in plans]
    warm_s = time.perf_counter() - t0
    delta = _metrics.diff(before, _metrics.snapshot())["counters"]

    # --- identity: the session must trade no accuracy -----------------------
    for cold_model, warm_model, count in zip(cold_models, warm_models, counts):
        assert _models_bitwise_equal(cold_model, warm_model), (
            f"incremental reassembly diverged from cold build at "
            f"tsv_count={count}"
        )

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    _metrics.set_gauge("bench.incremental_reassembly.speedup", speedup)
    result = {
        "benchmark": "fig5 TSV-count sweep reassembly",
        "smoke": _smoke(),
        "tsv_counts": list(counts),
        "sweep_repeats": repeats,
        "cold_s": round(cold_s, 4),
        "incremental_s": round(warm_s, 4),
        "speedup": round(speedup, 2),
        "layers_reused": delta.get("assemble.layers_reused", 0),
        "layers_built": delta.get("assemble.layers_built", 0),
        "connects_reused": delta.get("assemble.connects_reused", 0),
        "connects_built": delta.get("assemble.connects_built", 0),
        "session": session.stats(),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "incremental_reassembly.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    return result


@register_bench("incremental_reassembly")
def test_incremental_reassembly_speedup():
    """Incremental sweep reassembly: bitwise-equal and >= 1.3x faster."""
    result = run_benchmark()
    print("\n" + json.dumps(result, indent=2))
    # Reuse must actually happen: after the first sweep pass, layers come
    # exclusively from the session cache.
    assert result["layers_reused"] > 0
    assert result["connects_reused"] > 0
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"incremental reassembly only {result['speedup']}x over cold "
        f"rebuilds (floor {MIN_SPEEDUP}x)"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="incremental reassembly benchmark (see module docstring)"
    )
    parser.add_argument(
        "--manifest-out", metavar="PATH", default=None,
        help="write a run provenance manifest",
    )
    args = parser.parse_args(argv)

    from repro.obs import metrics as _metrics
    from repro.obs.manifest import build_manifest
    from repro.obs.trace import span

    before = _metrics.snapshot()
    with span("bench.incremental_reassembly", smoke=_smoke()) as sp:
        result = run_benchmark()
    print(json.dumps(result, indent=2))
    assert result["speedup"] >= MIN_SPEEDUP
    if args.manifest_out:
        build_manifest(
            experiment_id="bench.incremental_reassembly",
            title="incremental sweep reassembly",
            config={"smoke": _smoke(), "tsv_counts": result["tsv_counts"]},
            duration_s=sp.duration,
            metrics_snapshot=_metrics.diff(before, _metrics.snapshot()),
        ).write(args.manifest_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

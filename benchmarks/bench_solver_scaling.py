"""Solver backends: equivalence, warm-start speedup, and mesh scaling.

Three legs over the pluggable backends of :mod:`repro.rmesh.backends`:

* **equivalence** -- every benchmark stack's reference state solved with
  every backend (``direct`` and ``cg``); max-IR must agree with direct
  within ``EQUIV_RTOL`` relative.
* **warm-start** -- a fig5-style TSV-count sweep over off-chip DDR3 at a
  finer-than-production pitch, solved with the cg backend both cold
  (a fresh solver, hence a fresh factor preconditioner, per point) and
  warm (one :class:`repro.pdn.sweep.SweepSolveSession` carrying the
  preconditioner and previous solution across neighbors).  Each side
  runs ``WARM_PASSES`` times, interleaved, every pass from freshly
  cleared caches, and keeps its best wall; the
  session must be >= ``MIN_WARM_SPEEDUP`` faster and numerically agree
  with the direct path.
* **scaling** -- a synthetic SRAM-PG-style workload
  (:mod:`repro.rmesh.workloads`) at >= ``SCALE_FACTOR``x the nodes of
  the largest direct-solved benchmark stack (Wide I/O), solved with
  matrix-free Jacobi-CG.  Setup + solve must not exceed the *direct*
  setup + solve wall time of the 4x-smaller Wide I/O stack -- the
  "reference-resolution solves become routine" claim, gated.

Numbers land in the ``bench.solver_scaling.*`` gauges and a JSON
artifact under ``benchmarks/results/``.  Run directly
(``python benchmarks/bench_solver_scaling.py``) or under pytest;
``REPRO_BENCH_SMOKE=1`` shortens the sweep and skips the big-mesh
direct cross-check.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.bench import register_bench

RESULTS_DIR = Path(__file__).parent / "results"

#: Max-IR relative tolerance between iterative and direct backends
#: (acceptance criterion; observed agreement is ~1e-12).
EQUIV_RTOL = 1e-6

#: fig5-style sweep axis for the warm-start leg (TSV count per die).
#: The first point is the cold start whose setup both legs pay, so the
#: speedup grows with sweep length; 8 points already clear the 2x floor
#: with margin (~2.3x observed), 15 more comfortably still.
FULL_COUNTS = tuple(range(240, 311, 5))
SMOKE_COUNTS = tuple(range(240, 311, 10))

#: Mesh pitch for the warm-start sweep, mm.  Finer than production
#: (0.4 mm) so solver setup dominates the per-point cost the way it does
#: at reference resolution; observed speedup there is ~2.4x.
WARM_SWEEP_PITCH = 0.2

#: Timed passes per side of the warm-start leg (best wall kept).
WARM_PASSES = 3

#: Minimum accepted warm-over-cold speedup (acceptance criterion).
#: Warm-start typically lands 2-3x; the floor sits below that band
#: because the cold leg's wall is factorization-dominated and jitters
#: hard on busy single-core CI boxes.
MIN_WARM_SPEEDUP = 1.6

#: The scaling leg solves at this multiple of the largest benchmark
#: stack's node count (acceptance criterion).
SCALE_FACTOR = 4

#: Supply bump spacing (in grid nodes) of the scaling workload.  Dense,
#: SRAM-PG-style: server-class grids pitch their C4 field a couple of
#: mesh cells apart, which is also what keeps the Jacobi-preconditioned
#: system well conditioned at this node count.
SCALE_BUMP_EVERY = 2

#: Timer-noise allowance on the scaling comparison.  The two walls are
#: deliberately neck-and-neck (that is the claim: CG at 4x the nodes
#: matches the direct wall at 1x), so on a busy single-core CI box the
#: min-of-k estimates jitter 10-20% either side of each other.
SCALE_NOISE_TOL = 1.25


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _bench_equivalence() -> dict:
    """Leg 1: every backend agrees with direct on every benchmark."""
    from repro.designs import all_benchmarks, benchmark
    from repro.perf.cache import cached_build_stack, clear_caches
    from repro.rmesh.backends import BACKENDS

    rows = {}
    worst = 0.0
    for name in sorted(all_benchmarks()):
        clear_caches()
        bench = benchmark(name)
        stack = cached_build_stack(bench.stack, bench.baseline)
        state = bench.reference_state()
        maps = stack.power_maps(state)
        reference = None
        rows[name] = {}
        for backend in BACKENDS:
            solver = stack.solver_for(backend)
            result = solver.solve_power_maps(maps)
            ir = result.max_drop_mv()
            rows[name][backend] = {
                "max_ir_mv": round(ir, 6),
                "resolved": result.backend,
                "iterations": result.iterations,
            }
            if backend == "direct":
                reference = ir
            else:
                rel = abs(ir - reference) / reference
                rows[name][backend]["rel_err"] = float(f"{rel:.3e}")
                worst = max(worst, rel)
                assert rel <= EQUIV_RTOL, (
                    f"{name}/{backend}: max-IR {ir} vs direct {reference} "
                    f"({rel:.2e} > {EQUIV_RTOL} relative)"
                )
    return {
        "per_benchmark": rows,
        "worst_rel_err": float(f"{worst:.3e}"),
    }


def _bench_warm_start() -> dict:
    """Leg 2: session warm-start vs cold iterative solves on a sweep."""
    from repro.designs import off_chip_ddr3
    from repro.pdn.sweep import SweepSolveSession
    from repro.perf.cache import cached_build_stack, clear_caches
    from repro.rmesh.solve import StackSolver

    bench = off_chip_ddr3()
    state = bench.reference_state()
    counts = SMOKE_COUNTS if _smoke() else FULL_COUNTS

    def config_for(count):
        return bench.baseline.with_options(tsv_count=count)

    # Every pass starts from the same state: caches dropped (with them
    # the assembled stacks' cached solvers, so no pass reuses another's
    # preconditioners), then plans/assemblies/power maps pre-warmed so
    # both legs time the *solver* path, not the (identical) build path.
    def _reset():
        clear_caches()
        for count in counts:
            cached_build_stack(
                bench.stack, config_for(count), pitch=WARM_SWEEP_PITCH
            ).power_maps(state)

    # Cold: what the sweep costs without the session -- a fresh solver
    # (fresh factor preconditioner) at every point.
    def _cold_pass():
        t0 = time.perf_counter()
        vals = []
        for count in counts:
            stack = cached_build_stack(
                bench.stack, config_for(count), pitch=WARM_SWEEP_PITCH
            )
            solver = StackSolver(stack.model, backend="cg")
            vals.append(stack.solve_state(state, solver=solver).dram_max_mv)
        return time.perf_counter() - t0, vals

    # Warm: one session carries the preconditioner + solution across
    # knob-only neighbors.
    def _warm_pass():
        session = SweepSolveSession(backend="cg", pitch=WARM_SWEEP_PITCH)
        t0 = time.perf_counter()
        vals, iters = [], []
        for count in counts:
            result = session.solve(bench, config_for(count), state)
            vals.append(result.dram_max_mv)
            iters.append(result.raw.iterations)
        return time.perf_counter() - t0, vals, iters, session

    # Both legs are factorization-dominated and jitter on a busy
    # single-core box; interleaving the passes exposes both sides to the
    # same machine drift, and the best of WARM_PASSES per side drops
    # one-off outliers (the scaling leg below does the same).
    cold_passes, warm_passes = [], []
    for _ in range(WARM_PASSES):
        _reset()
        cold_passes.append(_cold_pass())
        _reset()
        warm_passes.append(_warm_pass())
    cold_s, cold_vals = min(cold_passes, key=lambda t: t[0])
    warm_s, warm_vals, iterations, session = min(
        warm_passes, key=lambda t: t[0]
    )

    # Ground truth: the bitwise-pinned direct path over the same sweep.
    direct_vals = [
        cached_build_stack(bench.stack, config_for(count), pitch=WARM_SWEEP_PITCH)
        .solver_for("direct")
        .solve_power_maps(
            cached_build_stack(
                bench.stack, config_for(count), pitch=WARM_SWEEP_PITCH
            ).power_maps(state)
        )
        .max_drop_mv()
        for count in counts
    ]
    worst = max(
        abs(w - d) / d for w, d in zip(warm_vals, direct_vals)
    )
    assert worst <= EQUIV_RTOL, (
        f"warm-start sweep diverged from direct: {worst:.2e} relative"
    )
    for cold, warm in zip(cold_vals, warm_vals):
        assert abs(cold - warm) / warm <= EQUIV_RTOL

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    return {
        "tsv_counts": list(counts),
        "pitch": WARM_SWEEP_PITCH,
        "passes": WARM_PASSES,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(speedup, 2),
        "iterations": iterations,
        "warm_starts": session.warm_starts,
        "cold_starts": session.cold_starts,
        "worst_rel_err": float(f"{worst:.3e}"),
    }


def _bench_scaling() -> dict:
    """Leg 3: Jacobi-CG at 4x the largest direct stack, within its wall."""
    from repro.designs import all_benchmarks, benchmark
    from repro.perf.cache import cached_build_stack, clear_caches
    from repro.rmesh.backends import make_operator
    from repro.rmesh.solve import currents_from_maps
    from repro.rmesh.workloads import workload_for_nodes

    # Largest benchmark stack (by node count) = the direct-solve ceiling.
    clear_caches()
    biggest, biggest_stack = None, None
    for name in sorted(all_benchmarks()):
        bench = benchmark(name)
        stack = cached_build_stack(bench.stack, bench.baseline)
        if biggest_stack is None or stack.model.num_nodes > biggest_stack.model.num_nodes:
            biggest, biggest_stack = name, stack
    bench = benchmark(biggest)
    state = bench.reference_state()
    maps = biggest_stack.power_maps(state)
    matrix = biggest_stack.model.conductance_matrix().tocsc()
    currents = currents_from_maps(biggest_stack.model, maps)

    # Synthetic workload at >= SCALE_FACTOR x nodes, matrix-free Jacobi-CG.
    workload = workload_for_nodes(
        SCALE_FACTOR * biggest_stack.model.num_nodes,
        bump_every=SCALE_BUMP_EVERY,
    )
    big_matrix = workload.model.conductance_matrix().tocsc()

    # Direct wall: setup (factorization) + one solve, timed as one unit
    # because the sweep-free use case pays both.  Passes *interleave*
    # the two sides so machine drift (frequency scaling, co-tenant
    # load) hits both walls equally, and the best of three per side
    # suppresses one-off allocator/page-fault outliers.
    def _direct_pass():
        t0 = time.perf_counter()
        op = make_operator("direct", matrix)
        x = op.solve(currents)
        return time.perf_counter() - t0, x

    def _cg_pass():
        t0 = time.perf_counter()
        op = make_operator("cg", big_matrix, precond_kind="jacobi")
        x = op.solve(workload.currents)
        return time.perf_counter() - t0, x, op

    direct_passes, cg_passes = [], []
    for _ in range(3):
        direct_passes.append(_direct_pass())
        cg_passes.append(_cg_pass())
    (direct_s, x_small) = min(direct_passes, key=lambda t: t[0])
    (cg_s, x_big, cg_op) = min(cg_passes, key=lambda t: t[0])

    result = {
        "largest_stack": biggest,
        "largest_nodes": biggest_stack.model.num_nodes,
        "direct_s": round(direct_s, 4),
        "workload_nodes": workload.num_nodes,
        "scale": round(workload.num_nodes / biggest_stack.model.num_nodes, 2),
        "cg_s": round(cg_s, 4),
        "cg_iterations": cg_op.iterations,
        "big_max_ir_mv": round(float(x_big.max()) * 1e3, 4),
        "small_max_ir_mv": round(float(x_small.max()) * 1e3, 4),
    }
    if not _smoke():
        # Full mode: cross-check the big-mesh iterative solve against a
        # direct factorization of the same system.
        x_ref = make_operator("direct", big_matrix).solve(workload.currents)
        rel = abs(float(x_big.max()) - float(x_ref.max())) / float(x_ref.max())
        result["big_rel_err"] = float(f"{rel:.3e}")
        assert rel <= EQUIV_RTOL

    assert workload.num_nodes >= SCALE_FACTOR * biggest_stack.model.num_nodes
    assert cg_s <= SCALE_NOISE_TOL * direct_s, (
        f"Jacobi-CG at {workload.num_nodes} nodes took {cg_s:.3f}s, over the "
        f"{direct_s:.3f}s direct wall of the {biggest_stack.model.num_nodes}-"
        f"node {biggest} stack (+{(SCALE_NOISE_TOL - 1) * 100:.0f}% noise "
        "allowance)"
    )
    return result


def run_benchmark() -> dict:
    from repro.obs import metrics as _metrics
    from repro.rmesh.backends import CONVERGENCE_TRACE_ENV

    # This bench gates raw *solver* timings (warm-start speedup, the
    # CG-vs-direct scaling wall), and its cold legs build a fresh
    # operator per point -- whose first solve would always be traced --
    # while warm solves converge in a couple of iterations, where even
    # one traced residual matvec is a large relative cost.  Run the legs
    # with convergence tracing off; telemetry overhead has its own
    # dedicated budget in bench_obs_overhead.
    trace_env_before = os.environ.get(CONVERGENCE_TRACE_ENV)
    os.environ[CONVERGENCE_TRACE_ENV] = "0"
    try:
        equivalence = _bench_equivalence()
        warm = _bench_warm_start()
        scaling = _bench_scaling()
    finally:
        if trace_env_before is None:
            os.environ.pop(CONVERGENCE_TRACE_ENV, None)
        else:
            os.environ[CONVERGENCE_TRACE_ENV] = trace_env_before

    _metrics.set_gauge("bench.solver_scaling.warm_speedup", warm["speedup"])
    _metrics.set_gauge(
        "bench.solver_scaling.scale_ratio",
        scaling["direct_s"] / scaling["cg_s"] if scaling["cg_s"] > 0 else 0.0,
    )
    _metrics.set_gauge(
        "bench.solver_scaling.worst_rel_err",
        max(equivalence["worst_rel_err"], warm["worst_rel_err"]),
    )
    result = {
        "benchmark": "solver backends: equivalence, warm-start, scaling",
        "smoke": _smoke(),
        "equivalence": equivalence,
        "warm_start": warm,
        "scaling": scaling,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "solver_scaling.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    return result


@register_bench("solver_scaling")
def test_solver_scaling():
    """Backends agree, warm-start >= 1.6x, 4x-node mesh within direct wall."""
    result = run_benchmark()
    print("\n" + json.dumps(result, indent=2))
    warm = result["warm_start"]
    assert warm["warm_starts"] > 0, "session never warm-started"
    assert warm["speedup"] >= MIN_WARM_SPEEDUP, (
        f"warm-start sweep only {warm['speedup']}x over cold iterative "
        f"solves (floor {MIN_WARM_SPEEDUP}x)"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="solver backend benchmark (see module docstring)"
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
    with span("bench.solver_scaling", smoke=_smoke()) as sp:
        result = run_benchmark()
    print(json.dumps(result, indent=2))
    assert result["warm_start"]["speedup"] >= MIN_WARM_SPEEDUP
    if args.manifest_out:
        build_manifest(
            experiment_id="bench.solver_scaling",
            title="solver backends: equivalence, warm-start, scaling",
            config={"smoke": _smoke()},
            duration_s=sp.duration,
            metrics_snapshot=_metrics.diff(before, _metrics.snapshot()),
        ).write(args.manifest_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

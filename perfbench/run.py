"""Repository benchmark: four workloads over the R-Mesh and controller pipelines.

Run from the repository root::

    python3 perfbench/run.py --workload dse_sweep --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics (``items_per_ref_s``,
``setup_s``, ``peak_rss_mb``) without the layer wrappers, timing on the
reference clock of ``refclock.py``; ``dse_sweep`` still observes the
samples the surrogate is fitted to through a pass-through patch (see
``workloads.py``).  ``--trace 1`` wraps every
layer's public functions (see ``layers.py``) and reports the per-layer
metrics instead, plus the tracing overhead against untraced units of the
same run.  Every unit's outputs are checked against ``reference.json``.
The trace workloads generate their inputs from ``seed mod 100``, so every
seed has a bitwise reference entry.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import refclock  # standard library only, so it can time the imports below

_IMPORTS = refclock.RefClock()
if __name__ == "__main__":
    _IMPORTS.start()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("dse_sweep", "state_lut", "trace_distr", "trace_mixed")
#: workload set-ups per untraced run; ``setup_s`` adds their median to
#: the (one-off) import time
SETUP_REPEATS = 3
#: BLAS thread pools held to one thread: with one per vCPU of a shared
#: 2-vCPU host, a block solve measured the scheduler (see README.md)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _load_program() -> None:
    """Import the program from this checkout's ``src`` (never elsewhere),
    on its defaults: no ``REPRO_*`` knob, so the direct backend, serial
    sweeps and no profiler.  BLAS runs on one thread."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in BLAS_THREAD_VARS:
        os.environ[key] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


# -- timed units ---------------------------------------------------------------


class Unit:
    """One timed repetition: wall time, items, outputs, check result."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.wall_s = 0.0
        #: the reference clock's reading (untraced runs only)
        self.interval: Optional[refclock.Interval] = None
        self.items = 0
        self.failed = 0
        self.errors: List[str] = []
        self.stats: Dict[str, Any] = {}
        self.overhead_s = 0.0
        self.cache_delta: Dict[str, Dict[str, int]] = {}


def _cache_counts() -> Dict[str, Dict[str, int]]:
    from repro.perf.cache import cache_stats

    return {k: {"hits": v["hits"], "misses": v["misses"]} for k, v in cache_stats().items()}


def _delta(after: Dict[str, Dict[str, int]], before: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    return {
        k: {f: after[k][f] - before.get(k, {}).get(f, 0) for f in after[k]}
        for k in after
    }


def _run_unit(wl: Any, ctx: Any, ref: Dict[str, Any], traced: bool,
              tracer: Any, extra_modules: Tuple[str, ...],
              clock: Optional[refclock.RefClock]) -> Unit:
    from repro.perf.cache import clear_caches

    import layers

    unit = Unit(traced)
    clear_caches()  # cold caches for every unit
    gc.collect()
    inst = layers.install(tracer, extra_modules) if traced else None
    tracer.reset()
    before = _cache_counts()
    if clock is not None:
        clock.start()
    try:
        t0 = time.perf_counter()
        result = wl.unit(ctx)
        unit.wall_s = time.perf_counter() - t0
    finally:
        if clock is not None:
            unit.interval = clock.stop()
        if inst is not None:
            inst.remove()
    unit.cache_delta = _delta(_cache_counts(), before)
    unit.overhead_s = tracer.overhead_s
    unit.stats = tracer.reset()
    unit.items = result.items
    unit.errors = wl.check(ctx, result.outputs, ref)
    unit.failed = wl.failed_items(unit.errors, result.items)
    return unit


def _schedule_done(units: List[Unit], seconds: float, elapsed: float, traced_run: bool) -> bool:
    """Whole units run until ``seconds`` have passed, and at least one.

    A traced run alternates untraced and traced units, starting untraced,
    and runs at least four: the overhead baseline is the untraced units
    after the first, and two traced units are needed to check that work
    counts repeat exactly.
    """
    if len(units) < (4 if traced_run else 1):
        return False
    return elapsed >= seconds


def _next_traced(units: List[Unit], traced_run: bool) -> bool:
    return traced_run and len(units) % 2 == 1


# -- metrics -------------------------------------------------------------------


def _ratio(delta: Dict[str, Dict[str, int]], cache: str) -> float:
    """Hit ratio of one program cache (0 when it saw no lookups)."""
    d = delta.get(cache, {"hits": 0, "misses": 0})
    lookups = d["hits"] + d["misses"]
    return d["hits"] / lookups if lookups else 0.0


def _per_layer(wl: Any, setup_stats: Dict[str, Any], setup_cache: Dict[str, Dict[str, int]],
               units: List[Unit]) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    import layers

    errors: List[str] = []
    traced = [u for u in units if u.traced]
    untraced = [u for u in units if not u.traced]
    counts = [layers.work_counts(u.stats) for u in traced]
    for i, other in enumerate(counts[1:], start=2):
        if other != counts[0]:
            diff = sorted(k for k in set(other) | set(counts[0])
                          if other.get(k) != counts[0].get(k))
            errors.append(f"work counts of traced unit {i} differ from unit 1: {diff}")
    # One unit's counts; self times are the median over traced units.
    unit_stats = {}
    for layer, stat in traced[0].stats.items():
        med = layers.LayerStats(stat.calls, 0.0, dict(stat.counts))
        med.self_s = statistics.median(
            u.stats[layer].self_s if layer in u.stats else 0.0 for u in traced
        )
        unit_stats[layer] = med
    stats = layers.merged(setup_stats, unit_stats)
    for layer in wl.expected_layers:
        if layers.stat_value(stats, layer, "calls") == 0:
            errors.append(f"layer {layer} recorded no calls: it is unmeasured, not free")
    cache = {
        k: {f: setup_cache[k][f] + traced[0].cache_delta[k][f] for f in ("hits", "misses")}
        for k in setup_cache
    }
    derived = {
        "perf.cache.powermap_hit_ratio": _ratio(cache, "power_map"),
        "perf.cache.stack_hit_ratio": _ratio(cache, "stack"),
        "unattributed_fraction": statistics.median(
            (u.wall_s - layers.total_self_s(u.stats) - u.overhead_s) / u.wall_s
            for u in traced
        ),
        "wrapper_overhead_fraction": statistics.median(
            u.overhead_s / u.wall_s for u in traced
        ),
        "trace_overhead_fraction": (
            statistics.median(u.wall_s for u in traced)
            / statistics.median(u.wall_s for u in untraced[1:])
            - 1.0
        ),
    }
    completed = layers.stat_value(stats, "controller.engine", "completed")
    derived["controller.engine.host_ns_per_request"] = (
        layers.stat_value(stats, "controller.engine", "self_s") * 1e9 / completed
        if completed else 0.0
    )
    metrics = {}
    for name, unit, _better, source in layers.PER_LAYER:
        value = derived[name] if source is None else layers.stat_value(stats, *source)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, errors


def _layer_summary(units: List[Unit]) -> str:
    """How a traced unit's wall splits, beside the untraced unit wall."""
    import layers

    traced = [u for u in units if u.traced]
    untraced = [u for u in units if not u.traced][1:]
    covered = statistics.median(layers.total_self_s(u.stats) for u in traced)
    overhead = statistics.median(u.overhead_s for u in traced)
    wall = statistics.median(u.wall_s for u in traced)
    plain = statistics.median(u.wall_s for u in untraced)
    return (f"  traced unit {wall:.3f} s = layers {covered:.3f} s + wrapper overhead "
            f"{overhead:.3f} s + unattributed {wall - covered - overhead:.3f} s; "
            f"untraced unit {plain:.3f} s (layers / untraced = {covered / plain:.3f})")


def _reference_for(wl: Any, seed: int) -> Tuple[Dict[str, Any], List[str]]:
    """The reference entry for ``seed``, and errors if the file is incomplete.

    A trace workload's entry must hold exactly the seeds
    ``0 .. REFERENCE_SEEDS-1`` at the current trace length, so a reference
    regenerated over fewer seeds fails every run instead of weakening it.
    """
    from workloads import REFERENCE_SEEDS, TRACE_REQUESTS

    ref = json.loads(REFERENCE.read_text())[wl.name]
    if "seeds" not in ref:
        return ref, []
    if (sorted(map(int, ref["seeds"])) != list(range(REFERENCE_SEEDS))
            or ref["requests"] != TRACE_REQUESTS):
        return {}, [f"reference.json {wl.name}: want seeds 0..{REFERENCE_SEEDS - 1} "
                    f"of {TRACE_REQUESTS} requests; regenerate it"]
    return ref["seeds"][str(seed)], []


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parse_args(argv)
        _load_program()
        import layers
        from repro.perf.cache import clear_caches
        from workloads import REFERENCE_SEEDS, WORKLOADS
    finally:
        imports = _IMPORTS.stop()
    wl = WORKLOADS[args.workload]
    input_seed = args.seed % REFERENCE_SEEDS
    extra_modules = ("workloads",)
    tracer = layers.Tracer()
    traced_run = bool(args.trace)
    if traced_run:
        outer = layers.calibrate(tracer)
        print("wrapper cost outside its clock reads: " + ", ".join(
            f"{kind} {cost * 1e9:.0f} ns" for kind, cost in outer.items()))

    # Set-up, cold each time (traced in a traced run: trace_distr builds
    # its LUT here).  The last set-up's context is the one the units use.
    clock = None if traced_run else refclock.RefClock()
    ctx = None
    setup_samples: List[refclock.Interval] = []
    for _ in range(1 if traced_run else SETUP_REPEATS):
        if ctx is not None:
            wl.cleanup(ctx)
            ctx = None
        clear_caches()
        gc.collect()
        inst = layers.install(tracer, extra_modules) if traced_run else None
        cache_before = _cache_counts()
        if clock is not None:
            clock.start()
        try:
            ctx = wl.setup(input_seed, WORKDIR)
        finally:
            if clock is not None:
                setup_samples.append(clock.stop())
            if inst is not None:
                inst.remove()
    setup_stats = tracer.reset()
    setup_cache = _delta(_cache_counts(), cache_before)

    try:
        ref, errors = _reference_for(wl, input_seed)
        units: List[Unit] = []
        crashed = False
        peak_rss_mb = 0.0
        start = time.perf_counter()
        while not errors and (not units or not _schedule_done(
            units, args.seconds, time.perf_counter() - start, traced_run
        )):
            try:
                units.append(_run_unit(wl, ctx, ref, _next_traced(units, traced_run),
                                       tracer, extra_modules, clock))
            except Exception:  # a raising unit fails its items; report, don't hang
                traceback.print_exc()
                crashed = True
                break
            if len(units) == 1:
                # Set-up plus one unit: later units only re-fill freed memory,
                # and how many fit in the run varies with machine speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if ctx is not None:
            wl.cleanup(ctx)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    attempted = sum(u.items for u in units)
    failed = sum(u.failed for u in units)
    errors += [e for u in units for e in u.errors]
    if crashed:
        # Items of the unit that raised: as many as a finished unit had.
        lost = units[0].items if units else 1
        attempted += lost
        failed += lost
        errors.append("a unit raised (traceback above)")

    metrics: Dict[str, Dict[str, Any]] = {}
    if traced_run and not crashed and units:
        metrics, layer_errors = _per_layer(wl, setup_stats, setup_cache, units)
        errors += layer_errors
    elif not traced_run and units:
        timed = [u.interval for u in units if u.interval is not None]
        metrics = {
            "items_per_ref_s": {
                "value": sum(u.items for u in units) / sum(iv.ref_s for iv in timed),
                "unit": "1/s",
            },
            "setup_s": {
                "value": imports.ref_s + statistics.median(iv.ref_s for iv in setup_samples),
                "unit": "s",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for message in errors[:50]:
        print(f"perfbench: {message}", file=sys.stderr)
    print(f"workload {wl.name}  seed {args.seed} (inputs of seed {input_seed}; "
          f"reference holds 0..{REFERENCE_SEEDS - 1})  units {len(units)} "
          f"({sum(u.traced for u in units)} traced)  items {attempted}  failed {failed}")
    if setup_samples:
        print(f"  set-up wall s: imports {imports.wall_s:.3f} + workload " + " ".join(
            f"{iv.wall_s:.3f}" for iv in setup_samples))
    print("  unit wall s: " + " ".join(
        f"{u.wall_s:.3f}{'t' if u.traced else ''}" for u in units))
    if not traced_run and units and not crashed:
        timed = [imports, *setup_samples, *(u.interval for u in units)]
        print("  machine speed (reference = 1): " + " ".join(
            f"{iv.speed:.3f}" for iv in timed) + "  [imports, set-ups, units]")
        print("  items per host second {:.6g}".format(
            sum(u.items for u in units) / sum(iv.net_s for iv in timed[-len(units):])))
    if traced_run and metrics:
        print(_layer_summary(units))
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

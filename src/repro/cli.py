"""Command-line interface: run paper experiments from the shell.

Examples::

    repro3d list                  # available experiments
    repro3d run table6            # one experiment (fast variant)
    repro3d run table9 --full     # full (slow) variant
    repro3d all                   # every experiment, fast variants
    repro3d solve ddr3_off 0-0-0-2 --f2f   # ad-hoc IR solve
    repro3d explain ddr3_off      # attribute the worst drop to its path
    repro3d explain --diff last~1 last     # attribution drift, stored runs
    repro3d bench --smoke         # telemetry suite + regression check
    repro3d bench --update-baseline        # bless intentional changes

Observability flags (global, any command)::

    --log-level debug             # surface library diagnostics
    --log-json run.jsonl          # JSON-lines structured log sink
    --quiet                       # errors only on stdout
    --trace-out trace.json        # Chrome trace-event span tree
    --metrics-out metrics.json    # counters/gauges/histograms + timers
    --manifest-out manifest.json  # run provenance receipt

All output goes through the ``repro`` logger hierarchy; at the default
``info`` level stdout is byte-identical to the historical ``print``
output, so scripts that parse it keep working.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.designs import all_benchmarks, benchmark
from repro.errors import ReproError
from repro.experiments import registry, run_experiment
from repro.obs.log import configure, get_logger
from repro.obs.manifest import build_manifest
from repro.obs.metrics import write_metrics
from repro.obs.profile import PROFILE_ENV, start_profiler
from repro.obs.trace import span, write_chrome_trace
from repro.pdn.config import Bonding
from repro.pdn.stackup import build_stack
from repro.perf.parallel import WORKERS_ENV
from repro.resil.checkpoint import CHECKPOINT_ENV
from repro.rmesh.backends import BACKENDS, SOLVER_ENV, resolve_backend
from repro.perf.timers import report as perf_report
from repro.power.state import MemoryState

_log = get_logger("cli")

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _manifest_path(args: argparse.Namespace) -> Optional[Path]:
    """Where this invocation's manifest goes, if anywhere.

    ``--manifest-out`` wins; otherwise asking for metrics or a trace
    implies provenance, so the manifest lands next to that artifact.
    """
    if args.manifest_out:
        return Path(args.manifest_out)
    for candidate in (args.metrics_out, args.trace_out):
        if candidate:
            return Path(candidate).with_suffix(".manifest.json")
    return None


def _cmd_list(_: argparse.Namespace) -> int:
    _log.info("available experiments:")
    for exp_id in sorted(registry):
        _log.info("  %s", exp_id)
    _log.info("\nbenchmarks: %s", ", ".join(sorted(all_benchmarks())))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    manifest_out = _manifest_path(args)
    result = run_experiment(
        args.experiment, fast=not args.full, manifest_out=manifest_out
    )
    if manifest_out is not None:
        args._manifest_written = True
    args._last_manifest = result.manifest
    _log.info("%s", result.fmt())
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    for exp_id in sorted(registry):
        result = run_experiment(exp_id, fast=not args.full)
        _log.info("%s\n", result.fmt())
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    bench = benchmark(args.benchmark)
    config = bench.baseline
    if args.f2f:
        config = config.with_options(bonding=Bonding.F2F)
    if args.wirebond:
        config = config.with_options(wire_bond=True)
    stack = build_stack(bench.stack, config)
    state = (
        MemoryState.from_string(args.state, bench.stack.dram_floorplan)
        if args.state
        else bench.reference_state()
    )
    result = stack.solve_state(state)
    _log.info("%s [%s]", bench.title, config.label())
    _log.info("  %s", result)
    if result.raw.backend != "direct":
        _log.info(
            "  solver: %s (%d iterations)",
            result.raw.backend,
            result.raw.iterations,
        )
    for die, mv in result.per_die_mv.items():
        _log.info("  %s: %.2f mV", die, mv)
    return 0


def _plan_for(benchmark_name: str, args: argparse.Namespace):
    """Plan one benchmark's stack with the CLI's config overrides."""
    from repro.pdn.stackup import plan_stack

    bench = benchmark(benchmark_name)
    config = bench.baseline
    if args.f2f:
        config = config.with_options(bonding=Bonding.F2F)
    if args.wirebond:
        config = config.with_options(wire_bond=True)
    if args.tsv_count is not None:
        config = config.with_options(tsv_count=args.tsv_count)
    return bench, config, plan_stack(bench.stack, config)


def _cmd_plan(args: argparse.Namespace) -> int:
    """Dump or diff declarative stack build plans (docs/architecture.md)."""
    from repro.pdn.plan import StackPlan

    bench, config, plan = _plan_for(args.benchmark, args)

    if args.diff:
        if Path(args.diff).is_file():
            other = StackPlan.from_json(Path(args.diff).read_text())
            other_label = args.diff
        else:
            _, _, other = _plan_for(args.diff, args)
            other_label = args.diff
        diff = plan.diff(other)
        _log.info(
            "%s (%s) vs %s:", args.benchmark, config.label(), other_label
        )
        _log.info("%s", diff.describe())
        return 0

    if args.out:
        Path(args.out).write_text(plan.to_json())
        _log.info("plan written: %s", args.out)
        return 0
    if args.json:
        _log.info("%s", plan.to_json().rstrip("\n"))
        return 0

    summary = plan.summary()
    _log.info("%s [%s]", bench.title, config.label())
    _log.info("  plan hash: %s", summary["plan_hash"])
    _log.info("  pitch: %.3f mm, %d DRAM dies", plan.pitch, plan.num_dram_dies)
    _log.info(
        "  %d ops, %d mesh nodes, %d layers",
        summary["num_ops"],
        summary["num_nodes"],
        len(plan.layer_keys()),
    )
    for kind, count in sorted(summary["ops"].items()):
        _log.info("    %-18s %d", kind, count)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Diagnose a solved design: recovered branch currents, KCL check,
    worst-node supply-path decomposition, per-plan-op attribution.

    ``--diff A B`` instead compares the worst-drop attribution of two
    stored runs (the physics axis of ``repro3d obs diff``).
    """
    import numpy as np

    from repro.obs.atomic import atomic_write_text

    if args.diff:
        from repro.obs.store import attribution_markdown, diff_runs

        store = _obs_store(args)
        delta = diff_runs(
            store.resolve(args.diff[0]), store.resolve(args.diff[1]), store
        )
        text = attribution_markdown(delta)
        _log.info("%s", text)
        if args.out:
            atomic_write_text(args.out, text + "\n")
        return 0

    if not args.benchmark:
        _log.error("explain needs a benchmark (or --diff RUN RUN)")
        return 2

    from repro.experiments.common import explain_design
    from repro.pdn.diagnose import validate_explain_dict

    bench = benchmark(args.benchmark)
    config = bench.baseline
    if args.f2f:
        config = config.with_options(bonding=Bonding.F2F)
    if args.wirebond:
        config = config.with_options(wire_bond=True)
    if args.tsv_count is not None:
        config = config.with_options(tsv_count=args.tsv_count)
    state = (
        MemoryState.from_string(args.state, bench.stack.dram_floorplan)
        if args.state
        else bench.reference_state()
    )
    diag = explain_design(bench, config, state)
    data = diag.to_dict()
    validate_explain_dict(data)

    if args.format == "json":
        text = diag.to_json().rstrip("\n")
    else:
        text = diag.markdown()
    _log.info("%s", text)
    if args.out:
        artifact = diag.to_json() if args.out.endswith(".json") else text + "\n"
        atomic_write_text(args.out, artifact)
        _log.info("explain artifact written: %s", args.out)
    if args.heatmaps and diag.raw is not None:
        _log.info(
            "\n%s", diag.raw.ascii_heatmap_stack()
        )
    if args.heatmap_out and diag.raw is not None:
        from repro.rmesh.branches import extract_branches

        branches = extract_branches(diag.raw.model, np.asarray(diag.raw.drops))
        fields = {}
        for key in diag.raw.model.layer_keys:
            tag = key.replace("/", "__")
            fields[f"drop_mv__{tag}"] = diag.raw.layer_drops(key) * 1e3
            fields[f"dissipation_w__{tag}"] = branches.layer_dissipation_map(key)
        np.savez_compressed(args.heatmap_out, **fields)
        _log.info(
            "heatmaps written: %s (%d layers x drop/dissipation)",
            args.heatmap_out,
            len(diag.raw.model.layer_keys),
        )
    return 0


_SIM_TIMINGS = ("ddr3", "wideio", "hmc")


def _sim_timing(name: str):
    from repro.dram.timing import TimingParams

    return {
        "ddr3": TimingParams.ddr3_1600,
        "wideio": TimingParams.wideio_200,
        "hmc": TimingParams.hmc_2500,
    }[name]()


def _cmd_sim(args: argparse.Namespace) -> int:
    """Run the event-driven controller on a memory trace.

    The trace streams through the engine (constant memory in trace
    length); ``--legacy`` instead materializes it and runs the original
    per-cycle loop for cross-checking.
    """
    import time

    from repro.controller.engine import EventDrivenEngine, SimConfig
    from repro.controller.lut import IRDropLUT
    from repro.controller.policies import (
        IRAwareDistR,
        IRAwareFCFS,
        StandardJEDEC,
    )
    from repro.controller.request import TraceMapping, read_trace
    from repro.controller.simulator import MemoryControllerSim
    from repro.power.model import (
        DDR3_POWER,
        HMC_POWER,
        WIDEIO_POWER,
        CommandEnergySpec,
        energy_ledger,
    )

    timing = _sim_timing(args.timing)
    mapping = TraceMapping(
        num_dies=args.dies, banks_per_die=args.banks_per_die
    )
    config = SimConfig(
        timing=timing,
        num_dies=args.dies,
        banks_per_die=args.banks_per_die,
        num_channels=args.channels,
        queue_depth=args.queue_depth,
        max_banks_per_die=args.max_banks_per_die,
        close_window=args.close_window,
        refresh_enabled=args.refresh,
    )

    lut = None
    if args.lut:
        lut = IRDropLUT.from_json(Path(args.lut).read_text())
    if args.policy == "standard":
        policy = StandardJEDEC(timing)
    else:
        if lut is None:
            _log.error(
                "policy %s needs an IR-drop table: pass --lut FILE "
                "(serialize one with IRDropLUT.to_json)",
                args.policy,
            )
            return 2
        cls = IRAwareFCFS if args.policy == "ir_fcfs" else IRAwareDistR
        policy = cls(lut, constraint_mv=args.constraint)

    workload = read_trace(
        args.trace,
        fmt=args.format,
        mapping=mapping,
        arrival_interval=args.arrival_interval,
    )
    start = time.perf_counter()
    if args.legacy:
        sim = MemoryControllerSim(config, policy, list(workload), lut)
        result = sim.run_legacy(max_cycles=args.max_cycles)
    else:
        engine = EventDrivenEngine(config, policy, workload, lut)
        result = engine.run(max_cycles=args.max_cycles)
    wall_s = time.perf_counter() - start

    _log.info("trace: %s", args.trace)
    _log.info(
        "engine: %s  policy: %s  timing: %s  %dch x %d banks/die x %d dies",
        "legacy" if args.legacy else "event",
        result.policy_name,
        args.timing,
        args.channels,
        args.banks_per_die,
        args.dies,
    )
    _log.info(
        "  %d requests (%d RD / %d WR) in %d cycles (%.2f us)",
        result.completed,
        result.reads,
        result.writes,
        result.cycles,
        result.runtime_us,
    )
    _log.info(
        "  bandwidth %.3f reads/clk, mean latency %.1f cycles, "
        "mean queue %.1f",
        result.bandwidth_reads_per_clk,
        result.mean_latency_cycles,
        result.mean_queue_depth,
    )
    _log.info(
        "  commands: %s",
        "  ".join(f"{k}={v}" for k, v in result.commands.items()),
    )
    if result.max_ir_mv is not None:
        _log.info("  max IR drop: %.2f mV", result.max_ir_mv)
    if result.states_dropped:
        _log.info(
            "  state histogram overflow: %d cycles beyond the "
            "%d-state cap",
            result.states_dropped,
            config.max_tracked_states,
        )
    if not result.finished:
        _log.warning(
            "  hit --max-cycles=%d before draining the trace", args.max_cycles
        )
    if args.energy:
        power = {"ddr3": DDR3_POWER, "wideio": WIDEIO_POWER, "hmc": HMC_POWER}[
            args.timing
        ]
        spec = CommandEnergySpec.from_power(
            power, timing, banks_per_die=args.banks_per_die
        )
        report = energy_ledger(
            result.commands,
            result.state_occupancy,
            power,
            timing,
            num_dies=args.dies,
            banks_per_die=args.banks_per_die,
            states_dropped=result.states_dropped,
        )
        _log.info("  energy (command path): %.1f nJ", report.command_total_nj)
        _log.info(
            "  energy (occupancy path): %.1f nJ  (mismatch %.1f%%)",
            report.occupancy_nj,
            100.0 * report.mismatch_fraction,
        )
        _log.info(
            "  per-command charge: %s",
            "  ".join(
                f"{c}={spec.energy_nj(c):.2f}nJ"
                for c in ("ACT", "PRE", "RD", "WR", "REF")
            ),
        )
    _log.info(
        "  wall %.2f s  (%.0f requests/s)",
        wall_s,
        result.completed / wall_s if wall_s > 0 else float("inf"),
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Unified benchmark runner + regression gate (see docs/benchmarks.md)."""
    from repro.bench import (
        Thresholds,
        baseline_path,
        compare,
        default_record_path,
        discover,
        load_baseline,
        load_trajectory,
        run_suite,
        select,
        update_baseline,
    )
    from repro.bench.baseline import scaled
    from repro.bench.registry import benchmarks_dir
    from repro.bench.report import comparison_to_markdown, record_summary

    if args.list_benches:
        for spec in select(None, smoke=False, registry=discover()):
            _log.info(
                "  %-28s %s%s",
                spec.name,
                "heavy" if spec.heavy else "smoke",
                f"  [{spec.harness}]",
            )
        return 0

    record = run_suite(
        names=args.only or None,
        smoke=not args.full,
        repeats=args.repeats,
    )
    root = benchmarks_dir().parent
    out = Path(args.out) if args.out else default_record_path(record, root)
    record.write(out)
    args._bench_record = record
    args._bench_record_path = out
    _log.info("%s", record_summary(record))
    _log.info("suite record: %s", out)
    # The trajectory lives next to the emitted record, so a redirected
    # --out (tests, scratch dirs) never picks up the repo-root history.
    trajectory_root = out.parent

    base_path = Path(args.baseline) if args.baseline else baseline_path(root)
    if args.update_baseline:
        update_baseline(record, base_path)
        _log.info("baseline updated: %s", base_path)
        return 0
    if args.no_compare:
        return 0

    baseline = load_baseline(base_path)
    if baseline is None:
        _log.info(
            "no baseline at %s -- every bench is new_benchmark; bless one "
            "with --update-baseline",
            base_path,
        )
        return 0
    thresholds = scaled(
        Thresholds(), perf_rel_tol=args.perf_tol, ir_abs_mv=args.ir_tol
    )
    comparison = compare(
        record,
        baseline,
        trajectory=load_trajectory(trajectory_root, exclude=(out,)),
        thresholds=thresholds,
    )
    _log.info("\n%s", comparison_to_markdown(comparison))
    if args.delta_out:
        Path(args.delta_out).write_text(
            comparison_to_markdown(comparison) + "\n"
        )
    failing = not comparison.ok
    if failing:
        _log.warning("bench suite verdict: %s", comparison.status)
    if args.gate and failing:
        return 1
    return 0


def _obs_store(args: argparse.Namespace):
    """The run-history store an ``obs`` action operates on."""
    from repro.obs.store import RunHistoryStore

    return RunHistoryStore(args.store)


def _cmd_obs_ingest(args: argparse.Namespace) -> int:
    """Ingest manifests / BENCH records into the run-history store."""
    store = _obs_store(args)
    for path in args.paths:
        run_id = store.ingest_path(path)
        _log.info("ingested %s -> run %s", path, run_id)
    return 0


def _cmd_obs_list(args: argparse.Namespace) -> int:
    """List stored runs, newest last."""
    from repro.obs.store import list_markdown

    store = _obs_store(args)
    records = store.runs()
    if not records:
        _log.info("run history at %s is empty", store.index_path)
        return 0
    _log.info("%s", list_markdown(records))
    return 0


def _cmd_obs_show(args: argparse.Namespace) -> int:
    """Show one stored run in full."""
    from repro.obs.store import show_markdown

    store = _obs_store(args)
    _log.info("%s", show_markdown(store.resolve(args.run)))
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    """Diff two stored runs; attribute drift; optionally gate on it.

    Backs both ``obs diff`` and ``obs attribute`` -- attribution *is*
    the diff's verdict plus its evidence; the commands differ only in
    emphasis, so they share one implementation and output format.
    """
    from repro.obs.atomic import atomic_write_text
    from repro.obs.store import delta_markdown, diff_runs

    store = _obs_store(args)
    refs = args.runs or ["last~1", "last"]
    if len(refs) != 2:
        _log.error("expected exactly two run references, got %d", len(refs))
        return 2
    delta = diff_runs(store.resolve(refs[0]), store.resolve(refs[1]), store)
    text = delta_markdown(delta)
    _log.info("%s", text)
    if args.out:
        atomic_write_text(args.out, text + "\n")
    if getattr(args, "gate", False) and delta.drift != "none":
        _log.warning("drift gate failed: %s", delta.drift)
        return 1
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    """Export a stored run as unified Chrome/Perfetto trace JSON."""
    import json as _json

    from repro.obs.atomic import atomic_write_text
    from repro.obs.store import export_chrome_trace

    store = _obs_store(args)
    doc = export_chrome_trace(store.resolve(args.run))
    atomic_write_text(args.out, _json.dumps(doc, default=str) + "\n")
    _log.info(
        "trace written: %s (%d events)", args.out, len(doc["traceEvents"])
    )
    return 0


def _workers_arg(value: str) -> int:
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 0 (0 means serial), got {count}"
        )
    return count


#: Defaults for the global flags; applied after parsing because the
#: shared option group uses ``SUPPRESS`` (see :func:`_global_options`).
_GLOBAL_DEFAULTS = {
    "perf_report": False,
    "workers": None,
    "solver": None,
    "log_level": "info",
    "log_json": None,
    "quiet": False,
    "trace_out": None,
    "metrics_out": None,
    "manifest_out": None,
    "profile": False,
    "history": False,
    "resume": None,
}


def _global_options() -> argparse.ArgumentParser:
    """The shared flag group, usable before *or* after the subcommand.

    ``argument_default=SUPPRESS`` keeps the subparser copy from
    clobbering a value the main parser already set; :func:`main` fills
    in :data:`_GLOBAL_DEFAULTS` for anything never given.
    """
    common = argparse.ArgumentParser(
        add_help=False, argument_default=argparse.SUPPRESS
    )
    common.add_argument(
        "--perf-report",
        action="store_true",
        help="print accumulated solver/assembly timers after the command",
    )
    common.add_argument(
        "--workers",
        type=_workers_arg,
        metavar="N",
        help="process count for design-space sweeps (default: serial, or "
        f"the {WORKERS_ENV} environment variable)",
    )
    common.add_argument(
        "--solver",
        choices=BACKENDS,
        help="linear solver backend for all R-Mesh solves, DC and "
        f"transient (default: direct, or the {SOLVER_ENV} environment "
        "variable)",
    )
    common.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        help="stdout/log verbosity (default: info)",
    )
    common.add_argument(
        "--log-json",
        metavar="PATH",
        help="also write structured JSON-lines log records to PATH",
    )
    common.add_argument(
        "--quiet",
        action="store_true",
        help="suppress normal stdout output (errors still print)",
    )
    common.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the run's span tree as Chrome trace-event JSON "
        "(load in chrome://tracing or Perfetto)",
    )
    common.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the metrics registry + timer snapshot as JSON",
    )
    common.add_argument(
        "--manifest-out",
        metavar="PATH",
        help="write a run provenance manifest (defaults to "
        "<metrics/trace path>.manifest.json when those flags are set)",
    )
    common.add_argument(
        "--profile",
        action="store_true",
        help="sample RSS/CPU/GC on a background thread for the whole run "
        f"(sets {PROFILE_ENV}=1 so worker processes profile too); samples "
        "land in the manifest and interleave with --trace-out as counter "
        "tracks",
    )
    common.add_argument(
        "--history",
        action="store_true",
        help="record this run in the run-history store when the command "
        "finishes (query it with `repro3d obs`)",
    )
    common.add_argument(
        "--resume",
        metavar="CKPT",
        help="journal completed design points into CKPT and resume from "
        "it: a re-run after a kill serves already-solved sweep points "
        f"from the checkpoint (sets {CHECKPOINT_ENV}; see "
        "docs/robustness.md)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro3d argument parser (exposed for tests/docs)."""
    common = _global_options()
    parser = argparse.ArgumentParser(
        prog="repro3d",
        description="3D DRAM DC power-integrity co-optimization platform "
        "(DAC'15 reproduction)",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list experiments and benchmarks", parents=[common]
    ).set_defaults(func=_cmd_list)

    run_p = sub.add_parser("run", help="run one experiment", parents=[common])
    run_p.add_argument("experiment", choices=sorted(registry))
    run_p.add_argument(
        "--full", action="store_true", help="full sweeps (slower)"
    )
    run_p.set_defaults(func=_cmd_run)

    all_p = sub.add_parser("all", help="run every experiment", parents=[common])
    all_p.add_argument("--full", action="store_true")
    all_p.set_defaults(func=_cmd_all)

    solve_p = sub.add_parser("solve", help="ad-hoc IR-drop solve", parents=[common])
    solve_p.add_argument("benchmark", choices=sorted(all_benchmarks()))
    solve_p.add_argument(
        "state", nargs="?", help='memory state, e.g. "0-0-0-2" (default: '
        "the benchmark's reference state)"
    )
    solve_p.add_argument("--f2f", action="store_true", help="F2F bonding")
    solve_p.add_argument("--wirebond", action="store_true", help="add bond wires")
    solve_p.set_defaults(func=_cmd_solve)

    explain_p = sub.add_parser(
        "explain",
        help="diagnose a solved design: branch currents, worst-path "
        "decomposition, per-plan-op attribution",
        parents=[common],
    )
    explain_p.add_argument(
        "benchmark",
        nargs="?",
        choices=sorted(all_benchmarks()),
        help="benchmark to explain (omit only with --diff)",
    )
    explain_p.add_argument(
        "state",
        nargs="?",
        help='memory state, e.g. "0-0-0-2" (default: the benchmark\'s '
        "reference state)",
    )
    explain_p.add_argument("--f2f", action="store_true", help="F2F bonding")
    explain_p.add_argument(
        "--wirebond", action="store_true", help="add bond wires"
    )
    explain_p.add_argument(
        "--tsv-count",
        type=int,
        default=None,
        metavar="N",
        help="override the baseline TSV count",
    )
    explain_p.add_argument(
        "--format",
        choices=("text", "markdown", "json"),
        default="text",
        help="report format on stdout (text and markdown render the same "
        "report; json prints the artifact)",
    )
    explain_p.add_argument(
        "--out",
        metavar="PATH",
        help="write the report to PATH (a .json suffix writes the JSON "
        "artifact regardless of --format)",
    )
    explain_p.add_argument(
        "--heatmaps",
        action="store_true",
        help="also print per-layer ascii drop heatmaps on one shared scale",
    )
    explain_p.add_argument(
        "--heatmap-out",
        metavar="PATH",
        help="export per-layer drop (mV) and dissipation (W) grids as a "
        "compressed .npz",
    )
    explain_p.add_argument(
        "--diff",
        nargs=2,
        metavar=("RUN_A", "RUN_B"),
        help="render the attribution drift between two stored runs "
        "(references as in `repro3d obs`: last, last~N, id prefix)",
    )
    explain_p.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="history store directory for --diff (default: "
        "benchmarks/results/history, or $REPRO_HISTORY_DIR)",
    )
    explain_p.set_defaults(func=_cmd_explain)

    plan_p = sub.add_parser(
        "plan",
        help="dump or diff a benchmark's declarative stack build plan",
        parents=[common],
    )
    plan_p.add_argument("benchmark", choices=sorted(all_benchmarks()))
    plan_p.add_argument("--f2f", action="store_true", help="F2F bonding")
    plan_p.add_argument(
        "--wirebond", action="store_true", help="add bond wires"
    )
    plan_p.add_argument(
        "--tsv-count",
        type=int,
        default=None,
        metavar="N",
        help="override the baseline TSV count",
    )
    plan_p.add_argument(
        "--json",
        action="store_true",
        help="print the full plan JSON instead of the summary",
    )
    plan_p.add_argument(
        "--out", metavar="PATH", help="write the plan JSON to PATH"
    )
    plan_p.add_argument(
        "--diff",
        metavar="TARGET",
        help="diff against another benchmark's plan (same overrides) or a "
        "plan JSON file",
    )
    plan_p.set_defaults(func=_cmd_plan)

    sim_p = sub.add_parser(
        "sim",
        help="run the event-driven memory controller on a trace file",
        parents=[common],
    )
    sim_p.add_argument(
        "--trace",
        required=True,
        metavar="FILE",
        help="memory trace (ramulator '0xADDR R|W' lines or DRAMPower "
        "'cycle,command,die,bank,row' CSV)",
    )
    sim_p.add_argument(
        "--format",
        choices=("auto", "ramulator", "drampower"),
        default="auto",
        help="trace format (auto: .csv -> drampower, else ramulator)",
    )
    sim_p.add_argument(
        "--policy",
        choices=("standard", "ir_fcfs", "ir_distr"),
        default="standard",
        help="scheduling policy (IR-aware ones need --lut)",
    )
    sim_p.add_argument(
        "--lut",
        metavar="FILE",
        help="serialized IR-drop table (IRDropLUT.to_json) for the "
        "IR-aware policies",
    )
    sim_p.add_argument(
        "--constraint",
        type=float,
        default=30.0,
        metavar="MV",
        help="IR-drop constraint in mV for the IR-aware policies",
    )
    sim_p.add_argument(
        "--timing",
        choices=_SIM_TIMINGS,
        default="ddr3",
        help="timing preset (default ddr3 = DDR3-1600)",
    )
    sim_p.add_argument("--dies", type=int, default=4, metavar="N")
    sim_p.add_argument("--banks-per-die", type=int, default=8, metavar="N")
    sim_p.add_argument("--channels", type=int, default=1, metavar="N")
    sim_p.add_argument("--queue-depth", type=int, default=32, metavar="N")
    sim_p.add_argument(
        "--max-banks-per-die",
        type=int,
        default=2,
        metavar="N",
        help="interleave limit (section 2.3's charge-pump cap)",
    )
    sim_p.add_argument("--close-window", type=int, default=8, metavar="N")
    sim_p.add_argument(
        "--refresh",
        action="store_true",
        help="issue periodic per-die refreshes (tREFI/tRFC)",
    )
    sim_p.add_argument(
        "--arrival-interval",
        type=float,
        default=1.0,
        metavar="CLK",
        help="synthesized request spacing for timestamp-free ramulator "
        "traces (default 1.0 = one per cycle)",
    )
    sim_p.add_argument(
        "--max-cycles", type=int, default=50_000_000, metavar="N"
    )
    sim_p.add_argument(
        "--legacy",
        action="store_true",
        help="run the original per-cycle loop instead (cross-checking; "
        "materializes the whole trace in memory)",
    )
    sim_p.add_argument(
        "--energy",
        action="store_true",
        help="append the per-command energy ledger to the report",
    )
    sim_p.set_defaults(func=_cmd_sim)

    bench_p = sub.add_parser(
        "bench",
        help="run the benchmark suite and gate against the baseline",
        parents=[common],
    )
    mode = bench_p.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke",
        action="store_true",
        help="sub-second bench set, fast experiment variants (default)",
    )
    mode.add_argument(
        "--full",
        action="store_true",
        help="every registered bench, full experiment variants",
    )
    bench_p.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="run only the named benches (see --list)",
    )
    bench_p.add_argument(
        "--repeats",
        type=int,
        default=1,
        metavar="K",
        help="median-of-K timing per bench (default 1)",
    )
    bench_p.add_argument(
        "--out",
        metavar="PATH",
        help="suite record path (default: BENCH_<stamp>_<sha>.json at the "
        "repo root)",
    )
    bench_p.add_argument(
        "--baseline",
        metavar="PATH",
        help="baseline record to compare against (default: "
        "benchmarks/BASELINE.json)",
    )
    bench_p.add_argument(
        "--update-baseline",
        action="store_true",
        help="bless this run as the new committed baseline and exit",
    )
    bench_p.add_argument(
        "--no-compare",
        action="store_true",
        help="emit the record without comparing against the baseline",
    )
    bench_p.add_argument(
        "--gate",
        action="store_true",
        help="exit nonzero on perf_regression / accuracy_drift / failed "
        "(the CI mode)",
    )
    bench_p.add_argument(
        "--perf-tol",
        type=float,
        default=None,
        metavar="FRAC",
        help="allowed fractional slowdown vs the baseline median "
        "(default 0.5; raise across machines)",
    )
    bench_p.add_argument(
        "--ir-tol",
        type=float,
        default=None,
        metavar="MV",
        help="allowed |delta| in max-IR values in mV (default 1e-6; "
        "raise across BLAS builds)",
    )
    bench_p.add_argument(
        "--delta-out",
        metavar="PATH",
        help="also write the markdown delta table to PATH",
    )
    bench_p.add_argument(
        "--list",
        dest="list_benches",
        action="store_true",
        help="list registered benches and exit",
    )
    bench_p.set_defaults(func=_cmd_bench)

    obs_p = sub.add_parser(
        "obs",
        help="query the run-history store: list/show/diff/attribute/export",
        parents=[common],
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)

    def _store_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store",
            metavar="DIR",
            default=None,
            help="history store directory (default: "
            "benchmarks/results/history, or $REPRO_HISTORY_DIR)",
        )

    ingest_p = obs_sub.add_parser(
        "ingest",
        help="ingest run manifests or BENCH_*.json suite records",
        parents=[common],
    )
    ingest_p.add_argument("paths", nargs="+", metavar="PATH")
    _store_arg(ingest_p)
    ingest_p.set_defaults(func=_cmd_obs_ingest)

    list_p = obs_sub.add_parser(
        "list", help="list stored runs", parents=[common]
    )
    _store_arg(list_p)
    list_p.set_defaults(func=_cmd_obs_list)

    show_p = obs_sub.add_parser(
        "show", help="show one stored run in full", parents=[common]
    )
    show_p.add_argument(
        "run",
        nargs="?",
        default="last",
        help="run reference: last, last~N, or a run-id prefix (default last)",
    )
    _store_arg(show_p)
    show_p.set_defaults(func=_cmd_obs_show)

    for name, help_text in (
        ("diff", "render the delta between two stored runs as markdown"),
        ("attribute", "attribute run-vs-run drift: structural (plan diff) "
         "vs numerical (metric/residual deltas)"),
    ):
        action_p = obs_sub.add_parser(name, help=help_text, parents=[common])
        action_p.add_argument(
            "runs",
            nargs="*",
            metavar="RUN",
            help="two run references (default: last~1 last)",
        )
        action_p.add_argument(
            "--out", metavar="PATH", help="also write the markdown to PATH"
        )
        action_p.add_argument(
            "--gate",
            action="store_true",
            help="exit nonzero when any drift is detected (the CI mode)",
        )
        _store_arg(action_p)
        action_p.set_defaults(func=_cmd_obs_diff)

    export_p = obs_sub.add_parser(
        "export",
        help="export a stored run as unified Chrome/Perfetto trace JSON "
        "(spans + profiler counter tracks)",
        parents=[common],
    )
    export_p.add_argument("run", nargs="?", default="last")
    export_p.add_argument(
        "--out",
        metavar="PATH",
        default="obs_trace.json",
        help="output path (default obs_trace.json)",
    )
    _store_arg(export_p)
    export_p.set_defaults(func=_cmd_obs_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    configure(level=args.log_level, json_path=args.log_json, quiet=args.quiet)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # A user-facing failure (bad input file, bad knob, ...): one line
        # with the error's structured context instead of a traceback.
        _log.error("repro3d: %s: %s", type(exc).__name__, exc)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    """Apply the global flags, run the subcommand, write its outputs."""
    if args.workers is not None:
        # Experiment drivers resolve workers from the environment, so the
        # flag reaches every sweep without threading it through each API.
        os.environ[WORKERS_ENV] = str(args.workers)
    if args.solver is not None:
        # Same pattern: StackSolver resolves its backend from the
        # environment, so one flag covers every solve in the run
        # (including worker processes, which inherit the environment).
        os.environ[SOLVER_ENV] = resolve_backend(args.solver)
    if args.profile:
        # Environment first so worker processes inherit the switch, then
        # the sampler itself for this process.
        os.environ[PROFILE_ENV] = "1"
        start_profiler()
    if args.resume:
        # Sweep sessions resolve their checkpoint from the environment
        # (repro.resil.checkpoint), so the flag covers every sweep in
        # the run without threading a handle through each driver.
        os.environ[CHECKPOINT_ENV] = args.resume
    with span(f"cli.{args.command}") as sp:
        code = args.func(args)
    if args.perf_report:
        _log.info("\n%s", perf_report())
    if args.trace_out:
        write_chrome_trace(args.trace_out)
    if args.metrics_out:
        write_metrics(args.metrics_out)
    manifest_path = _manifest_path(args)
    fallback_manifest = None
    if manifest_path is not None and not getattr(args, "_manifest_written", False):
        # Commands without a dedicated manifest (list/all/solve) still
        # get a provenance receipt covering the whole invocation.
        fallback_manifest = build_manifest(
            experiment_id=f"cli.{args.command}",
            title=f"repro3d {args.command}",
            config={"command": args.command, "full": getattr(args, "full", False)},
            duration_s=sp.duration,
        )
        fallback_manifest.write(manifest_path)
    if args.history:
        from repro.obs.store import RunHistoryStore

        store = RunHistoryStore()
        record = getattr(args, "_bench_record", None)
        if record is not None:
            run_id = store.ingest_bench_record(
                record.to_dict(),
                source=getattr(args, "_bench_record_path", None),
            )
        else:
            manifest = getattr(args, "_last_manifest", None) or fallback_manifest
            if manifest is None:
                manifest = build_manifest(
                    experiment_id=f"cli.{args.command}",
                    title=f"repro3d {args.command}",
                    config={
                        "command": args.command,
                        "full": getattr(args, "full", False),
                    },
                    duration_s=sp.duration,
                )
            run_id = store.ingest_live_run(manifest)
        _log.info("run recorded in history: %s", run_id)
    return code


if __name__ == "__main__":
    sys.exit(main())

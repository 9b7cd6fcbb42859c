"""The benchmark's four workloads, driven through the program's public API.

Each workload has a ``setup`` (inputs and anything built once per run, made
from the seed), a ``unit`` (one timed repetition of the work, returning the
items it completed and its outputs) and a ``check`` (outputs against the
committed reference; returns one message per wrong item).  Units call the
same functions ``repro3d run table9``, ``repro3d explain`` and
``repro3d sim --trace`` call.
"""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.controller.engine import EventDrivenEngine, SimConfig
from repro.controller.lut import IRDropLUT
from repro.controller.policies import IRAwareDistR, StandardJEDEC
from repro.controller.request import (
    TraceMapping,
    WorkloadConfig,
    generate_workload,
    read_trace,
    write_drampower_trace,
    write_ramulator_trace,
)
from repro.designs import all_benchmarks, off_chip_ddr3
from repro.dram.timing import TimingParams
from repro.opt import CoOptimizer
from repro.pdn.diagnose import diagnose_stack
from repro.pdn.stackup import build_stack
from repro.power.model import DDR3_POWER, energy_ledger
from repro.power.state import MemoryState
from repro.regress.model import IRDropSurrogate


def hexf(value: float) -> str:
    """Bitwise-exact text form of a float."""
    return float(value).hex()


@dataclass
class UnitResult:
    items: int
    outputs: Dict[str, Any]


class Workload:
    name = ""
    #: layers that must record calls in a traced run of this workload
    #: (the wrapper self-check: zero calls means the layer was bypassed).
    expected_layers: Tuple[str, ...] = ()

    def setup(self, seed: int, workdir: Path) -> Any:
        raise NotImplementedError

    def unit(self, ctx: Any) -> UnitResult:
        raise NotImplementedError

    def check(self, ctx: Any, outputs: Dict[str, Any], ref: Dict[str, Any]) -> List[str]:
        """Mismatch messages, one per wrong item (empty when correct)."""
        raise NotImplementedError

    def failed_items(self, errors: List[str], items: int) -> int:
        return min(len(errors), items)

    def cleanup(self, ctx: Any) -> None:
        pass


# -- dse_sweep -----------------------------------------------------------------


@contextmanager
def _fit_samples(sink: List[Any]) -> Iterator[None]:
    """Record the design samples the co-optimizer fits its surrogate to.

    ``CoOptimizer`` keeps only the fitted surrogate, so every unit, traced
    or not, patches :meth:`IRDropSurrogate.fit` with a pass-through that
    copies its ``samples`` argument and calls the original.
    """
    inner = IRDropSurrogate.fit

    def fit(self: IRDropSurrogate, samples: Any, *args: Any, **kwargs: Any) -> Any:
        sink.extend(samples)
        return inner(self, samples, *args, **kwargs)

    IRDropSurrogate.fit = fit  # type: ignore[method-assign]
    try:
        yield
    finally:
        IRDropSurrogate.fit = inner  # type: ignore[method-assign]


class DseSweep(Workload):
    name = "dse_sweep"
    expected_layers = (
        "pdn.plan", "pdn.plan_hash", "pdn.assemble", "rmesh.factorize",
        "power.powermap", "rmesh.solve", "regress.fit", "opt.optimize",
    )

    def setup(self, seed: int, workdir: Path) -> Any:
        return off_chip_ddr3()

    def unit(self, bench: Any) -> UnitResult:
        samples: List[Any] = []
        with _fit_samples(samples):
            opt = CoOptimizer(bench, tc_points=2)
        rows = [opt.baseline_result(), *opt.alpha_sweep()]
        return UnitResult(
            items=len(samples) + len(rows),
            outputs={
                "samples": [[s.config.label(), hexf(s.ir_mv)] for s in samples],
                "rows": [
                    [r.config.label(), hexf(r.verified_ir_mv), hexf(r.cost)]
                    for r in rows
                ],
            },
        )

    def check(self, bench: Any, outputs: Dict[str, Any], ref: Dict[str, Any]) -> List[str]:
        return _compare_lists("sample", outputs["samples"], ref["samples"]) + \
            _compare_lists("table9 row", outputs["rows"], ref["rows"])


def _compare_lists(what: str, got: List[Any], want: List[Any]) -> List[str]:
    """One message per position that differs (missing items included)."""
    errors = [
        f"{what} {i}: got {g}, want {w}"
        for i, (g, w) in enumerate(zip(got, want))
        if g != w
    ]
    for i in range(min(len(got), len(want)), max(len(got), len(want))):
        errors.append(f"{what} {i}: present on one side only")
    return errors


# -- state_lut -----------------------------------------------------------------

#: states diagnosed per benchmark, worst LUT drops first
DIAGNOSED_STATES = 8


def _counts_label(counts: Tuple[int, ...]) -> str:
    return "-".join(str(c) for c in counts)


class StateLut(Workload):
    name = "state_lut"
    expected_layers = (
        "pdn.plan", "pdn.plan_hash", "pdn.assemble", "rmesh.factorize",
        "power.powermap", "rmesh.solve", "controller.lut.precompute",
        "pdn.diagnose",
    )

    def setup(self, seed: int, workdir: Path) -> Any:
        return all_benchmarks()

    def unit(self, benches: Dict[str, Any]) -> UnitResult:
        outputs: Dict[str, Any] = {}
        items = 0
        for key, bench in benches.items():
            stack = build_stack(bench.stack, bench.baseline)
            table = IRDropLUT(stack).as_dict()
            worst = sorted(
                (counts for counts in table if sum(counts)),
                key=lambda c: (-table[c], c),
            )[:DIAGNOSED_STATES]
            drops = []
            for counts in worst:
                state = MemoryState.from_counts(counts, bench.stack.dram_floorplan)
                diag = diagnose_stack(stack, state)
                drops.append([_counts_label(counts), hexf(diag.worst_drop())])
            outputs[key] = {
                "lut": [[_counts_label(c), hexf(v)] for c, v in sorted(table.items())],
                "worst": drops,
            }
            # States solved: every non-idle LUT state, plus each diagnosis.
            items += sum(1 for counts in table if sum(counts)) + len(drops)
        return UnitResult(items=items, outputs=outputs)

    def check(self, benches: Any, outputs: Dict[str, Any], ref: Dict[str, Any]) -> List[str]:
        errors: List[str] = []
        for key in sorted(set(outputs) | set(ref)):
            got = outputs.get(key, {"lut": [], "worst": []})
            want = ref.get(key, {"lut": [], "worst": []})
            errors += _compare_lists(f"{key} LUT state", got["lut"], want["lut"])
            errors += _compare_lists(f"{key} diagnosis", got["worst"], want["worst"])
        return errors


# -- trace_distr / trace_mixed ------------------------------------------------------

#: requests per generated trace (one unit streams the whole trace)
TRACE_REQUESTS = 40_000
#: trace seeds held in reference.json; a run's seed is taken modulo this
REFERENCE_SEEDS = 100


@dataclass
class TraceContext:
    path: Path
    reads: int
    writes: int
    lut: Optional[IRDropLUT]


def _sim_outputs(result: Any, timing: TimingParams, num_dies: int) -> Dict[str, Any]:
    """The checked outputs of one simulation: counts, occupancy, ledger."""
    report = energy_ledger(
        result.commands,
        result.state_occupancy,
        DDR3_POWER,
        timing,
        num_dies=num_dies,
        banks_per_die=8,
        states_dropped=result.states_dropped,
    )
    occupancy = hashlib.sha256(
        repr(sorted(result.state_occupancy.items())).encode()
    ).hexdigest()
    return {
        "cycles": result.cycles,
        "completed": result.completed,
        "reads": result.reads,
        "writes": result.writes,
        "activations": result.activations,
        "precharges": result.precharges,
        "refreshes": result.refreshes,
        "finished": result.finished,
        "states_dropped": result.states_dropped,
        "occupancy_sha256": occupancy,
        "occupancy_cycles": sum(result.state_occupancy.values()),
        "max_ir_mv": None if result.max_ir_mv is None else hexf(result.max_ir_mv),
        "mean_latency_cycles": hexf(result.mean_latency_cycles),
        "ledger_command_nj": hexf(report.command_total_nj),
        "ledger_occupancy_nj": hexf(report.occupancy_nj),
    }


class _TraceWorkload(Workload):
    fmt = ""
    write_fraction = 0.0
    suffix = ""

    def config(self) -> SimConfig:
        raise NotImplementedError

    def policy(self, ctx: TraceContext) -> Any:
        raise NotImplementedError

    def build_lut(self) -> Optional[IRDropLUT]:
        return None

    def write_trace(self, path: Path, requests: List[Any]) -> None:
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path) -> TraceContext:
        ctx = self.write_inputs(seed, workdir)
        ctx.lut = self.build_lut()
        return ctx

    def write_inputs(self, seed: int, workdir: Path) -> TraceContext:
        """Generate the seed's trace file (no LUT yet)."""
        requests = generate_workload(
            WorkloadConfig(
                num_requests=TRACE_REQUESTS, write_fraction=self.write_fraction
            ),
            rng=np.random.default_rng(seed),
        )
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"{self.name}-{seed}-{os.getpid()}{self.suffix}"
        self.write_trace(path, requests)
        writes = sum(1 for r in requests if r.is_write)
        return TraceContext(
            path=path,
            reads=len(requests) - writes,
            writes=writes,
            lut=None,
        )

    def unit(self, ctx: TraceContext) -> UnitResult:
        config = self.config()
        workload = read_trace(ctx.path, fmt=self.fmt, mapping=TraceMapping())
        engine = EventDrivenEngine(
            config, self.policy(ctx), workload, report_lut=ctx.lut
        )
        result = engine.run(max_cycles=50_000_000)
        return UnitResult(
            items=result.completed,
            outputs=_sim_outputs(result, config.timing, config.num_dies),
        )

    def invariants(self, ctx: TraceContext, out: Dict[str, Any]) -> List[str]:
        """Checks that hold for any seed, reference or not."""
        errors = []
        if not out["finished"]:
            errors.append("simulation did not drain the trace")
        if (out["reads"], out["writes"]) != (ctx.reads, ctx.writes):
            errors.append(
                f"completed {out['reads']} RD / {out['writes']} WR, trace has "
                f"{ctx.reads} / {ctx.writes}"
            )
        if out["completed"] != ctx.reads + ctx.writes:
            errors.append(f"completed {out['completed']} of {ctx.reads + ctx.writes}")
        if out["occupancy_cycles"] + out["states_dropped"] != out["cycles"]:
            errors.append("state occupancy does not cover the simulated cycles")
        for key in ("ledger_command_nj", "ledger_occupancy_nj"):
            value = float.fromhex(out[key])
            if not (math.isfinite(value) and value > 0.0):
                errors.append(f"{key} = {value}")
        return errors

    def check(self, ctx: TraceContext, outputs: Dict[str, Any], ref: Dict[str, Any]) -> List[str]:
        errors = self.invariants(ctx, outputs)
        if ref:
            errors += [
                f"{key}: got {outputs.get(key)}, want {value}"
                for key, value in sorted(ref.items())
                if outputs.get(key) != value
            ]
        return errors

    def failed_items(self, errors: List[str], items: int) -> int:
        # One simulation: a wrong count or digest taints every request.
        return items if errors else 0

    def cleanup(self, ctx: TraceContext) -> None:
        ctx.path.unlink(missing_ok=True)


#: Table 6's IR-drop constraint (mV) on the off-chip DDR3 baseline.
DISTR_CONSTRAINT_MV = 24.0


class TraceDistr(_TraceWorkload):
    name = "trace_distr"
    expected_layers = (
        "controller.parse", "controller.engine", "controller.lut.admission",
        "power.ledger", "controller.lut.precompute", "rmesh.factorize",
        "rmesh.solve", "power.powermap",
    )
    fmt = "drampower"
    suffix = ".csv"

    def config(self) -> SimConfig:
        return SimConfig(timing=TimingParams.ddr3_1600())

    def build_lut(self) -> IRDropLUT:
        bench = off_chip_ddr3()
        return IRDropLUT(build_stack(bench.stack, bench.baseline))

    def policy(self, ctx: TraceContext) -> Any:
        return IRAwareDistR(ctx.lut, DISTR_CONSTRAINT_MV)

    def write_trace(self, path: Path, requests: List[Any]) -> None:
        write_drampower_trace(path, requests)

    def invariants(self, ctx: TraceContext, out: Dict[str, Any]) -> List[str]:
        errors = super().invariants(ctx, out)
        if out["max_ir_mv"] is None or float.fromhex(out["max_ir_mv"]) > DISTR_CONSTRAINT_MV:
            errors.append(f"max IR {out['max_ir_mv']} breaks the constraint")
        return errors


class TraceMixed(_TraceWorkload):
    name = "trace_mixed"
    expected_layers = ("controller.parse", "controller.engine", "power.ledger")
    fmt = "ramulator"
    write_fraction = 0.3
    suffix = ".trace"

    def config(self) -> SimConfig:
        return SimConfig(
            timing=TimingParams.ddr3_1600(), num_channels=2, refresh_enabled=True
        )

    def policy(self, ctx: TraceContext) -> Any:
        return StandardJEDEC(TimingParams.ddr3_1600())

    def write_trace(self, path: Path, requests: List[Any]) -> None:
        write_ramulator_trace(path, requests, mapping=TraceMapping())


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (DseSweep(), StateLut(), TraceDistr(), TraceMixed())
}

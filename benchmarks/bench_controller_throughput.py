"""Controller engine throughput: event-driven core vs the legacy loop.

The event-driven engine exists to make multi-million-request trace
studies practical, so this bench gates its speedup directly: both
engines run the same saturating 16-channel workload (the HMC shape,
where the per-cycle loop must scan 128 banks every cycle) and the event
engine must sustain at least 20x the legacy loop's requests/second.

The legacy loop runs a short prefix of the stream (it is the slow side
being measured -- timing it on the full workload would dominate the
suite), while the event engine runs a much longer one; both rates are
per-request, so the ratio is shape-fair.

A second leg holds the IR-aware DistR policy on the engine's per-channel
fast path: on Table 6 traffic (reads only, 80% row hits, one arrival
every 5 cycles, 24 mV constraint) the fast path must return the generic
policy-ordered path's exact ``SimResult`` at no less than 1.3x its
requests/second (interleaved best-of-3 timings).
"""

import os
import time
from dataclasses import asdict

from repro.bench import register_bench
from repro.controller import (
    IRAwareDistR,
    IRDropLUT,
    SimConfig,
    StandardJEDEC,
    WorkloadConfig,
    generate_workload,
)
from repro.controller.engine import EventDrivenEngine
from repro.controller.simulator import MemoryControllerSim
from repro.designs import off_chip_ddr3
from repro.dram.timing import TimingParams
from repro.pdn import build_stack

#: the acceptance gate: event-engine req/s over legacy req/s.
SPEEDUP_GATE = 20.0
#: DistR fast-path req/s over the generic path's, on Table 6 traffic.
DISTR_SPEEDUP_GATE = 1.3
#: Table 6's IR-drop constraint on the off-chip DDR3 baseline (mV).
DISTR_CONSTRAINT_MV = 24.0


class _GenericDistR(IRAwareDistR):
    """DistR with a pass-through ``order``: the same decisions, but an
    overridden ``order`` sends the engine down its generic path."""

    def order(self, queued, active_counts, is_ready=None):
        return super().order(queued, active_counts, is_ready)


def _workload(n: int):
    """Saturating traffic across 32 banks/die (the ext_hmc shape)."""
    return generate_workload(
        WorkloadConfig(
            num_requests=n, seed=7, banks_per_die=32, arrival_interval=1
        )
    )


def _config(timing: TimingParams) -> SimConfig:
    return SimConfig(
        timing=timing,
        num_dies=4,
        banks_per_die=32,
        num_channels=16,
        max_banks_per_die=8,
        max_banks_per_channel=2,
    )


def run_throughput_comparison(n_event: int, n_legacy: int):
    timing = TimingParams.hmc_2500()
    cfg = _config(timing)

    t0 = time.perf_counter()
    res_event = EventDrivenEngine(
        cfg, StandardJEDEC(timing), _workload(n_event)
    ).run()
    dt_event = time.perf_counter() - t0

    t0 = time.perf_counter()
    res_legacy = MemoryControllerSim(
        cfg, StandardJEDEC(timing), _workload(n_legacy)
    ).run_legacy()
    dt_legacy = time.perf_counter() - t0

    assert res_event.finished and res_legacy.finished
    return {
        "event_req_s": n_event / dt_event,
        "legacy_req_s": n_legacy / dt_legacy,
        "speedup": (n_event / dt_event) / (n_legacy / dt_legacy),
        "event_cycles": res_event.cycles,
    }


def run_distr_comparison(n: int):
    """DistR fast path vs generic path: same result, best-of-3 req/s."""
    timing = TimingParams.ddr3_1600()
    cfg = SimConfig(timing=timing)
    bench = off_chip_ddr3()
    lut = IRDropLUT(build_stack(bench.stack, bench.baseline))
    wc = WorkloadConfig(num_requests=n)  # Table 6 traffic (the defaults)

    best = {}
    results = {}
    for _ in range(3):
        for leg, cls in (("fast", IRAwareDistR), ("generic", _GenericDistR)):
            workload = generate_workload(wc)
            engine = EventDrivenEngine(
                cfg, cls(lut, DISTR_CONSTRAINT_MV), workload, report_lut=lut
            )
            t0 = time.perf_counter()
            results[leg] = engine.run()
            dt = time.perf_counter() - t0
            best[leg] = min(best.get(leg, dt), dt)

    assert results["fast"].finished
    assert asdict(results["fast"]) == asdict(results["generic"]), (
        "DistR fast path diverged from the generic path"
    )
    return {
        "distr_fast_req_s": n / best["fast"],
        "distr_generic_req_s": n / best["generic"],
        "distr_speedup": best["generic"] / best["fast"],
    }


def run_controller_benches(n_event: int, n_legacy: int, n_distr: int):
    row = run_throughput_comparison(n_event, n_legacy)
    row.update(run_distr_comparison(n_distr))
    return row


@register_bench("controller_throughput", tags=("controller",))
def test_controller_throughput(benchmark):
    fast = os.environ.get("REPRO_FAST", "0") == "1"
    n_event = 10_000 if fast else 30_000
    n_legacy = 800 if fast else 1_500
    n_distr = 2_000 if fast else 5_000
    row = benchmark.pedantic(
        run_controller_benches,
        args=(n_event, n_legacy, n_distr),
        rounds=1,
        iterations=1,
    )
    print("\n== controller engine throughput ==")
    print(f"  event : {row['event_req_s']:>10,.0f} req/s  ({n_event:,} requests)")
    print(f"  legacy: {row['legacy_req_s']:>10,.0f} req/s  ({n_legacy:,} requests)")
    print(f"  speedup: {row['speedup']:.1f}x  (gate >= {SPEEDUP_GATE:.0f}x)")
    print(f"  DistR fast   : {row['distr_fast_req_s']:>10,.0f} req/s")
    print(f"  DistR generic: {row['distr_generic_req_s']:>10,.0f} req/s")
    print(
        f"  DistR speedup: {row['distr_speedup']:.2f}x  "
        f"(gate >= {DISTR_SPEEDUP_GATE}x)"
    )
    assert row["speedup"] >= SPEEDUP_GATE, (
        f"event engine only {row['speedup']:.1f}x over legacy "
        f"(gate {SPEEDUP_GATE}x)"
    )
    assert row["distr_speedup"] >= DISTR_SPEEDUP_GATE, (
        f"DistR fast path only {row['distr_speedup']:.2f}x over the generic "
        f"path (gate {DISTR_SPEEDUP_GATE}x)"
    )

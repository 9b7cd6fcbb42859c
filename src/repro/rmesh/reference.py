"""Golden reference solver and R-Mesh validation (paper Figure 4).

The paper validates its R-Mesh against Cadence Encounter Power System
(EPS): max IR drops of 32.2 mV (R-Mesh) vs 32.6 mV (EPS), a 1.3% error,
with a 517x speedup because the R-Mesh "does not perform parasitic
extraction from the layout and reduces the total resistor count".

Without the commercial tool, the golden reference here is the same
physics at a much finer discretization: the production R-Mesh coarsens
the PDN onto a ~0.4 mm grid, while the reference resolves ~0.13 mm --
an order of magnitude more resistors, playing exactly EPS's role of the
higher-fidelity, slower signoff model (DESIGN.md section 2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.perf.cache import clear_caches
from repro.power.state import MemoryState
from repro.pdn.stackup import PDNStack
from repro.tech.calibration import DEFAULT_TECH, TechConstants


@dataclass
class ValidationReport:
    """Coarse-vs-reference comparison for one memory state."""

    coarse_ir_mv: float
    reference_ir_mv: float
    coarse_time_s: float
    reference_time_s: float
    coarse_resistors: int
    reference_resistors: int

    @property
    def error_percent(self) -> float:
        """Relative max-IR error of the production mesh, %."""
        return abs(self.coarse_ir_mv - self.reference_ir_mv) / self.reference_ir_mv * 100.0

    @property
    def speedup(self) -> float:
        """Runtime ratio reference/coarse (the paper reports 517x; ours is
        bounded by the resistor-count ratio of the two discretizations)."""
        if self.coarse_time_s <= 0.0:
            return float("inf")
        return self.reference_time_s / self.coarse_time_s

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"R-Mesh {self.coarse_ir_mv:.2f} mV vs reference "
            f"{self.reference_ir_mv:.2f} mV ({self.error_percent:.1f}% error, "
            f"{self.speedup:.0f}x speedup, "
            f"{self.coarse_resistors} vs {self.reference_resistors} resistors)"
        )


#: cold runs per resolution; each leg's time is the best of them.
TIMING_REPEATS = 3


def _cold_solve(
    build: Callable[[Optional[float]], PDNStack],
    pitch: float,
    state: MemoryState,
) -> Tuple[float, float, int]:
    """(wall s, max IR mV, resistor count) of one build+solve with the
    process caches (power maps, column orderings, plan hashes) cleared
    first, so it reuses no work from an earlier leg."""
    clear_caches()
    t0 = time.perf_counter()
    stack = build(pitch)
    ir = stack.dram_max_mv(state)
    return time.perf_counter() - t0, ir, stack.model.num_resistors


def validate_against_reference(
    build: Callable[[Optional[float]], PDNStack],
    state: MemoryState,
    tech: TechConstants = DEFAULT_TECH,
    coarse_pitch: Optional[float] = None,
    reference_pitch: Optional[float] = None,
) -> ValidationReport:
    """Solve one state at production and reference resolution.

    ``build`` is a callable mapping a mesh pitch to a built stack (so the
    same design can be re-discretized); timings cover build+factorize+
    solve for each resolution, mirroring how the paper timed both tools
    end to end.  Each resolution's time is the best of
    :data:`TIMING_REPEATS` cold runs, the two resolutions alternating, so
    one slow ~10 ms coarse run cannot decide the speedup.  Every run
    computes the same IR values.
    """
    coarse_pitch = coarse_pitch or tech.mesh_pitch
    reference_pitch = reference_pitch or tech.reference_pitch

    runs = [
        (
            _cold_solve(build, coarse_pitch, state),
            _cold_solve(build, reference_pitch, state),
        )
        for _ in range(TIMING_REPEATS)
    ]
    coarse = [c for c, _ in runs]
    reference = [r for _, r in runs]
    return ValidationReport(
        coarse_ir_mv=coarse[0][1],
        reference_ir_mv=reference[0][1],
        coarse_time_s=min(t for t, _, _ in coarse),
        reference_time_s=min(t for t, _, _ in reference),
        coarse_resistors=coarse[0][2],
        reference_resistors=reference[0][2],
    )

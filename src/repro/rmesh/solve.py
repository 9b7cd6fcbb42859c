"""Sparse DC solve of an assembled stack and IR-drop extraction.

The solver prepares the conductance matrix once and reuses that setup
across memory states: a new state only changes the current right-hand
side.  This is what makes building the controller's IR-drop look-up
table (section 5.2) cheap -- one factorization, dozens of
back-substitutions.

*How* the system is solved is pluggable (:mod:`repro.rmesh.backends`):
the default ``direct`` backend is the historical SuperLU factorization,
bitwise identical to what this module always produced; ``cg`` is the
preconditioned iterative path whose setup artifact can be warm-started
from a neighboring sweep point (:mod:`repro.pdn.sweep`).  Select per
solver (``StackSolver(model, backend="cg")``), per process
(``REPRO_SOLVER=cg``), or per CLI invocation (``repro3d --solver cg``).
The transient extension (:mod:`repro.rmesh.transient`) builds its
operator through the same backend layer and loads its right-hand sides
through the same :func:`currents_from_maps` scatter.

Observability: setup and every solve run inside trace spans
(``solver.factorize`` / ``solver.solve`` / ``solver.solve_many``, each
tagged with the backend); the metrics registry counts factorizations,
solved right-hand sides and iterative-solver iterations, histograms the
RHS batch sizes, and gauges the solve's relative residual norm
``||Gx - b|| / ||b||`` as a numerical health check.  The residual gauge
costs a full sparse matvec, so it is *sampled* (every
:data:`RESIDUAL_SAMPLE_EVERY`-th solve per solver; override with
``REPRO_RESIDUAL_EVERY``, ``1`` restores always-on) -- the LUT-build hot
loop no longer pays O(nnz) per right-hand side.  Residuals are computed
on the already-solved vector, so recorded IR drops are bitwise
unaffected by the sampling rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro import envcfg
from repro.errors import SolverError
from repro.geometry import Point
from repro.obs import metrics as _metrics
from repro.obs.trace import span
from repro.power.powermap import PowerMap
from repro.rmesh.backends import (
    ResidualTrace,
    SolverOperator,
    make_operator,
    resolve_backend,
)
from repro.rmesh.stack import StackModel
from repro.units import to_mv

#: Record the residual-norm gauge on every Nth solve per solver (the
#: first solve is always sampled).  ``REPRO_RESIDUAL_EVERY`` overrides.
RESIDUAL_SAMPLE_EVERY = 16

RESIDUAL_ENV = "REPRO_RESIDUAL_EVERY"


def _residual_every() -> int:
    # Warn-and-default on a malformed value (repro.envcfg); values below
    # 1 still clamp to 1 (always sample), as they always have.
    return max(envcfg.env_int(RESIDUAL_ENV, RESIDUAL_SAMPLE_EVERY), 1)


@dataclass
class IRDropResult:
    """Node IR drops (volts) plus bookkeeping to slice them per die/layer.

    ``drops`` may be a *view* into a shared solution block (the batched
    :meth:`StackSolver.solve_many` path keeps one Fortran-ordered block
    instead of per-column copies); treat it as read-only, like every
    library path does.  ``backend``/``iterations`` carry the solve's
    provenance (iterations is 0 for the direct path).
    """

    model: StackModel
    drops: np.ndarray  # per global node, volts
    solve_time: float  # seconds spent in back-substitution
    backend: str = "direct"
    iterations: int = field(default=0, compare=False)
    #: Residual history of this solve when the iterative backend traced
    #: it (sampled; see ``REPRO_TRACE_EVERY``); None for direct solves
    #: and untraced iterations.  Carries backend/preconditioner/rtol
    #: provenance plus a bounded ``[iteration, relative residual]`` curve.
    convergence: Optional["ResidualTrace"] = field(default=None, compare=False)
    #: Highest escalation rung the backend climbed to produce this
    #: solve (``None`` = converged as configured, ``"factor"`` =
    #: retried with a stronger preconditioner, ``"direct"`` = fell back
    #: to SuperLU).  See :class:`repro.rmesh.backends.EscalatingOperator`.
    escalated: Optional[str] = field(default=None, compare=False)

    def max_drop(self) -> float:
        """Worst IR drop anywhere in the stack, volts."""
        return float(self.drops.max())

    def max_drop_mv(self) -> float:
        return to_mv(self.max_drop())

    def die_max_drop(self, die: str) -> float:
        """Worst IR drop on one die, volts."""
        return float(self.drops[self.model.die_node_ids(die)].max())

    def die_max_drop_mv(self, die: str) -> float:
        return to_mv(self.die_max_drop(die))

    def layer_drops(self, key: str) -> np.ndarray:
        """IR drops of one layer reshaped to its grid (ny, nx)."""
        grid = self.model.layer_grid(key)
        return self.drops[self.model.layer_slice(key)].reshape(grid.ny, grid.nx)

    def per_die_max_mv(self) -> Dict[str, float]:
        """Worst drop per die in mV (report helper)."""
        return {die: self.die_max_drop_mv(die) for die in self.model.dies()}

    def ascii_heatmap(
        self,
        key: str,
        levels: str = " .:-=+*#%@",
        vmax: Optional[float] = None,
    ) -> str:
        """Render one layer's IR-drop field as an ASCII heat map.

        Rows print top-down (max y first) so the picture matches a
        top-view layout plot.  By default intensity is normalized to the
        layer's own maximum drop (the historical single-layer behavior);
        pass ``vmax`` (volts) to pin the scale externally -- a stack
        rendering must share one ``vmax`` across its layers or the
        per-layer auto-scale makes cross-layer comparisons mislead (see
        :meth:`ascii_heatmap_stack`).
        """
        field = self.layer_drops(key)
        peak = float(field.max())
        lines = [f"{key}: max {peak * 1e3:.2f} mV"]
        span = float(vmax) if vmax is not None and vmax > 0 else (
            peak if peak > 0 else 1.0
        )
        for row in field[::-1]:
            chars = [
                levels[min(int(v / span * (len(levels) - 1)), len(levels) - 1)]
                for v in row
            ]
            lines.append("".join(chars))
        return "\n".join(lines)

    def ascii_heatmap_stack(
        self,
        keys: Optional[Sequence[str]] = None,
        levels: str = " .:-=+*#%@",
    ) -> str:
        """Render several layers on ONE shared intensity scale.

        The scale is the worst drop across the selected layers (default:
        every layer of the stack), so a dim M3 next to a saturated M1
        means M3 really does carry less drop -- which per-layer
        auto-scaling cannot show.
        """
        keys = list(keys) if keys is not None else self.model.layer_keys
        if not keys:
            return ""
        vmax = max(float(self.layer_drops(key).max()) for key in keys)
        header = f"shared scale: max {vmax * 1e3:.2f} mV across {len(keys)} layers"
        parts = [header]
        parts.extend(
            self.ascii_heatmap(key, levels=levels, vmax=vmax) for key in keys
        )
        return "\n\n".join(parts)

    def worst_node_location(
        self, with_value: bool = False
    ) -> "tuple[str, Point] | tuple[str, Point, float]":
        """(layer key, stack-coordinate point) of the worst-drop node.

        With ``with_value=True`` the worst drop itself (volts) is
        appended: ``(layer key, point, drop)`` -- so callers get the
        where *and* the how-much in one lookup.
        """
        node = int(np.argmax(self.drops))
        for key in self.model.layer_keys:
            sl = self.model.layer_slice(key)
            if sl.start <= node < sl.stop:
                grid = self.model.layer_grid(key)
                i, j = grid.node_index(node - sl.start)
                local = grid.node_point(i, j)
                origin = self.model.layer_origin(key)
                point = Point(local.x + origin.x, local.y + origin.y)
                if with_value:
                    return key, point, float(self.drops[node])
                return key, point
        raise SolverError(f"node {node} not inside any layer")  # pragma: no cover


def currents_from_maps(
    model: StackModel, maps: Mapping[str, PowerMap]
) -> np.ndarray:
    """Assemble one global current vector from per-layer power maps.

    Each power map must be rasterized on the same grid as its target
    layer; the map's currents are drawn from that layer's nodes.
    """
    currents = np.zeros(model.num_nodes)
    for key, pmap in maps.items():
        sl = model.layer_slice(key)
        grid = model.layer_grid(key)
        if pmap.grid.nx != grid.nx or pmap.grid.ny != grid.ny:
            raise SolverError(
                f"power map grid {pmap.grid.nx}x{pmap.grid.ny} does not "
                f"match layer {key!r} grid {grid.nx}x{grid.ny}"
            )
        currents[sl] += pmap.flat()
    return currents


def prepare_operator(
    backend: str,
    matrix: sparse.spmatrix,
    warm_from: Optional[SolverOperator] = None,
    **span_attrs: object,
) -> Tuple[SolverOperator, float]:
    """Set up ``backend`` on ``matrix`` -- the one setup path of every
    R-Mesh solver.

    Runs :func:`~repro.rmesh.backends.make_operator` inside a
    ``solver.factorize`` span (tagged with the node count, the backend
    and ``span_attrs``), counts ``solver.factorizations`` and
    ``solver.backend.<name>``, and returns the operator with the span's
    duration.
    """
    with span(
        "solver.factorize", nodes=matrix.shape[0], backend=backend, **span_attrs
    ) as sp_:
        op = make_operator(backend, matrix, warm_from=warm_from)
    _metrics.inc("solver.factorizations")
    _metrics.inc(f"solver.backend.{op.name}")
    return op, sp_.duration


class StackSolver:
    """Prepare a stack's system once, solve many load configurations.

    ``backend`` picks the solve strategy (argument > ``REPRO_SOLVER`` >
    ``direct``; see :mod:`repro.rmesh.backends`).  ``warm_from`` hands in
    a neighboring solver whose preconditioner is reused when compatible
    -- the sweep warm-start path.
    """

    def __init__(
        self,
        model: StackModel,
        backend: Optional[str] = None,
        warm_from: "Optional[StackSolver]" = None,
    ) -> None:
        self.model = model
        self.backend = resolve_backend(backend)
        matrix = model.conductance_matrix().tocsc()
        self._op, self.factor_time = prepare_operator(
            self.backend,
            matrix,
            warm_from=warm_from._op if warm_from is not None else None,
        )
        # Kept for residual-norm checks; the setup artifacts dominate memory.
        self._matrix = matrix
        self._num_nodes = model.num_nodes
        self._solve_count = 0

    # -- backend introspection ------------------------------------------------

    @property
    def operator(self) -> SolverOperator:
        """The prepared backend operator (preconditioner handoff point)."""
        return self._op

    @property
    def last_iterations(self) -> int:
        """Iteration count of the most recent solve (0 for direct)."""
        return self._op.iterations

    @property
    def reused_preconditioner(self) -> bool:
        """Whether this solver's setup reused a neighbor's preconditioner."""
        return self._op.reused_preconditioner

    def _observe_solution(self, rhs: np.ndarray, drops: np.ndarray) -> None:
        """Record throughput metrics -- and, sampled, the residual gauge.

        Reads the solution only -- never mutates it -- so IR numbers are
        bitwise identical with or without observability output flags.
        The residual norm costs a full sparse matvec, so it is computed
        only on every Nth solve per solver (first solve included); the
        cheap counters are recorded unconditionally.
        """
        k = 1 if rhs.ndim == 1 else rhs.shape[1]
        sampled = self._solve_count % _residual_every() == 0
        self._solve_count += 1
        _metrics.inc("solver.rhs_solved", k)
        _metrics.observe("solver.rhs_batch_size", k)
        if self._op.iterations:
            _metrics.set_gauge("solver.last_iterations", self._op.iterations)
        if not sampled:
            return
        residual = float(np.linalg.norm(self._matrix @ drops - rhs))
        scale = float(np.linalg.norm(rhs))
        relative = residual / scale if scale > 0.0 else residual
        _metrics.set_gauge("solver.residual_norm", relative)
        _metrics.observe("solver.residual_norm", relative)

    def solve_currents(
        self, currents: np.ndarray, x0: Optional[np.ndarray] = None
    ) -> IRDropResult:
        """Solve for node drops given a per-node current vector (A).

        ``x0`` is an optional initial guess for iterative backends
        (ignored by ``direct``): the previous sweep point's solution
        short-circuits most of each warm solve.
        """
        if currents.shape != (self._num_nodes,):
            raise SolverError(
                f"current vector has shape {currents.shape}, expected "
                f"({self._num_nodes},)"
            )
        if np.any(currents < -1e-15):
            worst = int(np.argmin(currents))
            raise SolverError(
                "negative load current: loads draw from VDD",
                worst_node=worst,
                worst_current=float(currents[worst]),
            )
        with span("solver.solve", backend=self.backend) as sp:
            drops = self._op.solve(currents, x0=x0)
            sp.attrs["iterations"] = self._op.iterations
        if not np.all(np.isfinite(drops)):
            raise SolverError(
                "solve produced non-finite drops",
                num_nodes=self._num_nodes,
                worst_node=int(np.argmax(~np.isfinite(drops))),
                nonfinite=int(np.count_nonzero(~np.isfinite(drops))),
            )
        self._observe_solution(currents, drops)
        return IRDropResult(
            model=self.model,
            drops=drops,
            solve_time=sp.duration,
            backend=self._op.name,
            iterations=self._op.iterations,
            convergence=self._op.last_trace,
            escalated=getattr(self._op, "escalation", None),
        )

    def solve_block(
        self, currents_matrix: np.ndarray, x0: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Solve ``k`` load configurations; return one Fortran-ordered block.

        ``currents_matrix`` has shape ``(num_nodes, k)``, one current
        vector per column; the result block matches it.  Column ``i`` is
        bitwise identical to ``solve_currents(currents_matrix[:, i])``.
        This is the memory-lean primitive under :meth:`solve_many`:
        callers that only need the raw drops (LUT builds, batched
        sweeps) can consume the block directly -- one allocation, no
        per-column copies.
        """
        if currents_matrix.ndim != 2 or currents_matrix.shape[0] != self._num_nodes:
            raise SolverError(
                f"currents matrix has shape {currents_matrix.shape}, "
                f"expected ({self._num_nodes}, k)"
            )
        if currents_matrix.shape[1] == 0:
            return np.empty((self._num_nodes, 0), order="F")
        if np.any(currents_matrix < -1e-15):
            worst = int(np.argmin(currents_matrix.min(axis=1)))
            raise SolverError(
                "negative load current: loads draw from VDD",
                worst_node=worst,
            )
        k = currents_matrix.shape[1]
        with span("solver.solve_many", count=k, batch=k, backend=self.backend) as sp:
            block = self._op.solve_block(
                np.asfortranarray(currents_matrix), x0=x0
            )
            sp.attrs["iterations"] = self._op.iterations
        if not np.all(np.isfinite(block)):
            raise SolverError(
                "solve produced non-finite drops",
                num_nodes=self._num_nodes,
                batch=k,
                nonfinite=int(np.count_nonzero(~np.isfinite(block))),
            )
        self._observe_solution(currents_matrix, block)
        self._last_block_time = sp.duration
        return block

    def solve_many(
        self, currents_matrix: np.ndarray, x0: Optional[np.ndarray] = None
    ) -> List[IRDropResult]:
        """Solve ``k`` load configurations in one back-substitution.

        The whole block goes through the backend in a single
        :meth:`solve_block` call -- the batched form of the "one
        factorization, dozens of back-substitutions" trick the
        controller LUT build relies on.  Each result's ``drops`` is a
        zero-copy *view* into the shared Fortran-ordered block (columns
        of an F-ordered array are contiguous), so a large LUT batch no
        longer doubles peak RSS by materializing per-column copies.
        Column ``i`` of the result is bitwise identical to
        ``solve_currents(currents_matrix[:, i])``.
        """
        block = self.solve_block(currents_matrix, x0=x0)
        if block.shape[1] == 0:
            return []
        per_rhs = self._last_block_time / block.shape[1]
        # Traced columns' residual histories land in the global buffer
        # (backends.traces()); per-result provenance carries the batch's
        # last trace on the last result only -- attributing one column's
        # curve to all k results would be misleading.
        last = block.shape[1] - 1
        return [
            IRDropResult(
                model=self.model,
                drops=block[:, i],
                solve_time=per_rhs,
                backend=self._op.name,
                iterations=self._op.iterations,
                convergence=self._op.last_trace if i == last else None,
                escalated=getattr(self._op, "escalation", None),
            )
            for i in range(block.shape[1])
        ]

    def solve_power_maps(
        self, maps: Mapping[str, PowerMap], x0: Optional[np.ndarray] = None
    ) -> IRDropResult:
        """Solve with loads given as power maps keyed by layer key."""
        return self.solve_currents(currents_from_maps(self.model, maps), x0=x0)

"""Warm-started solves across neighboring sweep points.

Design-space sweeps (fig5 TSV-count curves, Table-9-style co-optimizer
polish) solve a *sequence* of stacks that differ by one knob -- a TSV
count, a pitch, a metal usage.  The plan IR makes that structure
explicit: :class:`~repro.pdn.plan.PlanDiff` between two sweep points
shows which ops changed, and when no :class:`~repro.pdn.plan.AddLayerOp`
was added or removed the two stacks share their node numbering -- layer
meshes, offsets, and grids are identical, only link conductances moved.

:class:`SweepSolveSession` exploits exactly that.  Walking sweep points
in plan order with an iterative backend, each point's solver is

* **warm-started** from the previous point's preconditioner (a complete
  factorization or Jacobi scaling of a spectrally-nearby matrix -- see
  :mod:`repro.rmesh.backends`), replacing a fresh factorization with a
  handful of CG iterations, and
* **seeded** with the previous solution of the same memory state as the
  initial guess (node numbering is preserved, so the vector lines up).

When a plan diff touches layers (node numbering changes) or the
preconditioner has drifted too far (iteration count above
``refresh_iters``), the session rebuilds its setup from the current
point -- so a sweep that jumps scales degrades to cold solves instead of
diverging.  The ``direct`` backend passes straight through to the shared
cached solvers: results are bitwise identical to
:func:`repro.experiments.common.solve_design`.

Stacks come from :func:`repro.perf.cache.cached_build_stack`, so the
session composes with the plan/assembled/stack caches and the shared
:class:`~repro.pdn.assemble.AssemblySession` -- reassembly is
incremental *and* the solve is warm.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs.trace import span
from repro.pdn.plan import AddLayerOp, PlanDiff, StackPlan
from repro.rmesh.backends import resolve_backend
from repro.rmesh.solve import StackSolver

#: Rebuild the preconditioner when a warm solve needed more iterations
#: than this -- the matrix has drifted too far from the one the
#: preconditioner was built for (e.g. a knob doubling instead of a
#: fine step).  150 factor-preconditioned iterations cost about as much
#: as a fresh factorization on the paper's stacks.
DEFAULT_REFRESH_ITERS = 150


def knob_only_diff(diff: PlanDiff) -> bool:
    """Whether a plan diff preserves node numbering.

    True when no layer op was added or removed: every mesh, node offset
    and grid is shared, so solutions and preconditioners transfer
    between the two plans' solvers.
    """
    return not any(
        isinstance(op, AddLayerOp) for op in diff.removed + diff.added
    )


class SweepSolveSession:
    """Solve sweep points in order, reusing setup across neighbors.

    Use one session per sweep curve (one benchmark, one knob trajectory);
    interleaving unrelated stacks defeats the warm start but stays
    correct -- every reuse is gated on a plan diff.

    ``backend=None`` resolves via ``REPRO_SOLVER``; with the ``direct``
    backend the session is a transparent pass-through to the shared
    cached solvers (bitwise identical results, no extra state).
    """

    def __init__(
        self,
        backend: Optional[str] = None,
        tech: Any = None,
        pitch: Optional[float] = None,
        refresh_iters: int = DEFAULT_REFRESH_ITERS,
        checkpoint: Any = None,
    ) -> None:
        from repro.resil.checkpoint import default_checkpoint

        self.backend = resolve_backend(backend)
        self.tech = tech
        self.pitch = pitch
        self.refresh_iters = refresh_iters
        # ``checkpoint=None`` picks up the process checkpoint named by
        # REPRO_CHECKPOINT / ``repro3d --resume`` (None when unset);
        # pass an explicit SweepCheckpoint to journal one sweep apart.
        self.checkpoint = (
            checkpoint if checkpoint is not None else default_checkpoint()
        )
        self._prev_plan: Optional[StackPlan] = None
        self._prev_solver: Optional[StackSolver] = None
        # Previous solutions keyed by (state label, logic scale): the x0
        # seed for the same state at the next sweep point.
        self._last_drops: Dict[Tuple[str, float], np.ndarray] = {}
        self.warm_starts = 0
        self.cold_starts = 0

    def reset(self) -> None:
        """Forget all carried setup (start a new sweep curve)."""
        self._prev_plan = None
        self._prev_solver = None
        self._last_drops.clear()

    def _solver_for(self, stack: Any) -> StackSolver:
        """The stack's solver, warm-started from the previous point when
        the plan diff says node numbering is preserved."""
        plan = stack.plan
        warm_from: Optional[StackSolver] = None
        if (
            plan is not None
            and self._prev_plan is not None
            and self._prev_solver is not None
        ):
            if plan.plan_hash == self._prev_plan.plan_hash:
                # Same physical network: the previous solver *is* the one.
                return self._prev_solver
            diff = PlanDiff.between(self._prev_plan, plan)
            if knob_only_diff(diff):
                warm_from = self._prev_solver
        if warm_from is not None:
            self.warm_starts += 1
            _metrics.inc("sweep.warm_starts")
        else:
            self.cold_starts += 1
            _metrics.inc("sweep.cold_starts")
            self._last_drops.clear()  # numbering changed; guesses are garbage
        return stack.solver_for(self.backend, warm_from=warm_from)

    def solve(
        self,
        bench: Any,
        config: Any,
        state: Any,
        logic_scale: float = 1.0,
    ):
        """Build (cached) and solve one sweep point for one memory state.

        Drop-in for :func:`repro.experiments.common.solve_design`; with
        the direct backend the result is bitwise identical to it.
        Returns a :class:`~repro.pdn.stackup.StackIRResult`.
        """
        from repro.perf.cache import cached_build_stack
        from repro.resil.checkpoint import point_key

        stack = cached_build_stack(
            bench.stack if hasattr(bench, "stack") else bench,
            config,
            tech=self.tech,
            pitch=self.pitch,
        )
        # Checkpoint lookup before any solve work: a resumed run serves
        # completed design points straight from the journal (keyed by
        # the plan's content hash, so edited inputs miss cleanly).
        ck_key = None
        if self.checkpoint is not None and stack.plan is not None:
            ck_key = point_key(
                stack.plan.plan_hash, state.label(), logic_scale
            )
            hit = self.checkpoint.lookup(ck_key)
            if hit is not None:
                return hit
        if self.backend == "direct":
            # Transparent pass-through: shared solver, no session state.
            result = stack.solve_state(state, logic_scale)
            if ck_key is not None:
                self.checkpoint.record(ck_key, result)
            return result

        with span("sweep.solve", backend=self.backend) as sp:
            solver = self._solver_for(stack)
            key = (state.label(), logic_scale)
            x0 = self._last_drops.get(key)
            if x0 is not None and x0.shape[0] != stack.model.num_nodes:
                x0 = None  # pragma: no cover - guarded by cold-start clear
            result = stack.solve_state(state, logic_scale, x0=x0, solver=solver)
            sp.attrs["iterations"] = solver.last_iterations
            sp.attrs["warm"] = solver.reused_preconditioner
        self._last_drops[key] = result.raw.drops
        if (
            solver.last_iterations > self.refresh_iters
            and solver.reused_preconditioner
        ):
            # The carried preconditioner has drifted; rebuild from the
            # current matrix so the *next* point warms from a neighbor.
            solver = StackSolver(stack.model, backend=self.backend)
            _metrics.inc("sweep.preconditioner_refreshes")
        self._prev_plan = stack.plan
        self._prev_solver = solver
        if ck_key is not None:
            self.checkpoint.record(ck_key, result)
        return result

    def stats(self) -> Dict[str, int]:
        return {
            "warm_starts": self.warm_starts,
            "cold_starts": self.cold_starts,
        }

"""Branch-current recovery: from a solved drop field back to the wires.

The solver produces node drops; the paper's analysis (sections 3 and 6)
argues about *where* the drop comes from -- package, C4 bumps, PG TSVs,
on-die metal.  That question lives on the branches, not the nodes: every
resistor in the assembled network carries a current ``I = g * (u_a -
u_b)`` that is fully determined by the solution, and recovering those
currents turns a black-box drop field into a physical circuit one can
interrogate (current density per TSV group, dissipation per layer, the
supply path feeding the worst node).

This module is the one branch-current path of the package; both
``repro3d explain`` and the TSV current-crowding study (section 3.2,
whose reference [6] models DC current crowding of TSV-based 3D
connections) read it:

* :func:`extract_branches` -- every mesh edge, vertical link and supply
  link as vectorized ``(a, b, g, current)`` groups, in the model's
  insertion order (so plan-op artifact ranges map 1:1 onto link
  indices; see :mod:`repro.pdn.diagnose`);
* :meth:`StackBranches.node_net_current` -- the per-node KCL sum, which
  must reproduce the injected load vector (the conservation property
  the physics tests pin at 1e-9 relative);
* :meth:`StackBranches.interface` plus :class:`CrowdingReport` -- the
  per-link current distribution over one die-to-die interface (or over
  the supply links) and its crowding factor;
* per-layer dissipation / lateral current-density fields for hotspot
  inspection.

Everything here *reads* the solution -- nothing mutates the model or the
solver, so diagnostics can never perturb recorded physics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SolverError
from repro.rmesh.stack import StackModel


@dataclass
class CrowdingReport:
    """Distribution of current over a group of parallel vertical links.

    "Crowding factor" is the classic metric: the worst link's current
    over the uniform share (total / count).  1.0 means perfectly balanced
    TSVs; the paper's misaligned and center-clustered configurations show
    factors well above that.
    """

    currents: np.ndarray  # per-link magnitudes, A

    def __post_init__(self) -> None:
        if self.currents.size == 0:
            raise SolverError("crowding report over an empty link group")

    @property
    def total_a(self) -> float:
        return float(np.sum(self.currents))

    @property
    def max_a(self) -> float:
        return float(np.max(self.currents))

    @property
    def mean_a(self) -> float:
        return float(np.mean(self.currents))

    @property
    def crowding_factor(self) -> float:
        """max / uniform-share; 1.0 = perfectly balanced."""
        if self.total_a <= 0.0:
            return 1.0
        return self.max_a / (self.total_a / self.currents.size)

    @property
    def gini(self) -> float:
        """Gini coefficient of the current distribution (0 = uniform)."""
        if self.total_a <= 0.0:
            return 0.0
        sorted_c = np.sort(self.currents)
        n = sorted_c.size
        cum = np.cumsum(sorted_c)
        return float((n + 1 - 2 * np.sum(cum) / cum[-1]) / n)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"{self.currents.size} links, total {self.total_a * 1e3:.1f} mA, "
            f"worst {self.max_a * 1e3:.2f} mA, crowding factor "
            f"{self.crowding_factor:.2f}"
        )


@dataclass(frozen=True)
class BranchGroup:
    """One homogeneous slice of the network's branches.

    ``kind`` is ``"mesh"`` (edges of one layer, ``layer`` set),
    ``"link"`` (all vertical links, insertion order), or ``"supply"``
    (links to the ideal package node; ``b`` is ``-1``, the eliminated
    supply at drop 0).  ``current`` is signed: positive flows from
    ``a`` toward ``b`` in drop coordinates, i.e. from the hotter (higher
    drop) end toward the supply side.
    """

    kind: str
    layer: Optional[str]
    a: np.ndarray  # global node ids
    b: np.ndarray  # global node ids (-1 for the supply node)
    g: np.ndarray  # conductance, siemens
    current: np.ndarray  # signed amps, a -> b

    @property
    def count(self) -> int:
        return int(self.a.size)

    def dissipation(self) -> np.ndarray:
        """Per-branch dissipated power, watts (``I^2 / g`` = ``g * dV^2``).

        Memoized: the group is frozen, so the field is computed once and
        shared across aggregation passes (treat it as read-only).
        """
        cached = self.__dict__.get("_dissipation")
        if cached is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                cached = np.where(self.g > 0.0, self.current**2 / self.g, 0.0)
            object.__setattr__(self, "_dissipation", cached)
        return cached

    def crowding(self) -> CrowdingReport:
        """Current distribution over this group's branches (magnitudes)."""
        return CrowdingReport(np.abs(self.current))


class StackBranches:
    """All branch currents of one solved stack, grouped and queryable."""

    def __init__(
        self,
        model: StackModel,
        drops: np.ndarray,
        mesh: Dict[str, BranchGroup],
        links: BranchGroup,
        supply: BranchGroup,
    ) -> None:
        self.model = model
        self.drops = drops
        self.mesh = mesh  # layer key -> group
        self.links = links
        self.supply = supply

    # -- totals ----------------------------------------------------------------

    @property
    def num_branches(self) -> int:
        return (
            sum(g.count for g in self.mesh.values())
            + self.links.count
            + self.supply.count
        )

    def groups(self) -> List[BranchGroup]:
        """Every group: per-layer meshes first, then links, then supply."""
        return [*self.mesh.values(), self.links, self.supply]

    def interface(self, key_a: str, key_b: str) -> BranchGroup:
        """The vertical links joining layers ``key_a`` and ``key_b``.

        Either direction counts; links keep their insertion order and
        signed currents.  For a TSV interface this is the per-TSV current
        distribution of the paper's section 3.2 study.
        """
        sl_a = self.model.layer_slice(key_a)
        sl_b = self.model.layer_slice(key_b)
        a, b = self.links.a, self.links.b
        a_in_a = (a >= sl_a.start) & (a < sl_a.stop)
        a_in_b = (a >= sl_b.start) & (a < sl_b.stop)
        b_in_a = (b >= sl_a.start) & (b < sl_a.stop)
        b_in_b = (b >= sl_b.start) & (b < sl_b.stop)
        mask = (a_in_a & b_in_b) | (a_in_b & b_in_a)
        if not mask.any():
            raise SolverError(f"no links between {key_a!r} and {key_b!r}")
        return BranchGroup(
            kind="link",
            layer=None,
            a=a[mask],
            b=b[mask],
            g=self.links.g[mask],
            current=self.links.current[mask],
        )

    # -- conservation ----------------------------------------------------------

    def node_net_current(self) -> np.ndarray:
        """Net branch current leaving each node, recovered from branches.

        For the solved system ``G u = J`` this must equal the injected
        load vector ``J``: every amp a load draws arrives through the
        node's branches.  Computed purely from the recovered per-branch
        currents (scatter-add), *not* from ``G @ u``, so it genuinely
        tests the recovery.
        """
        net = np.zeros(self.model.num_nodes)
        for group in self.groups():
            np.add.at(net, group.a, group.current)
            if group.kind != "supply":
                np.add.at(net, group.b, -group.current)
        return net

    def kcl_residual(self, injected: np.ndarray) -> Dict[str, float]:
        """KCL residual of the recovery against the injected currents.

        Returns the max absolute residual (amps) and the max residual
        relative to the injected-current scale -- the number the
        conservation property test pins at 1e-9.
        """
        net = self.node_net_current()
        residual = net - injected
        scale = float(np.abs(injected).max())
        if scale <= 0.0:
            scale = max(float(np.abs(net).max()), 1.0)
        max_abs = float(np.abs(residual).max())
        return {
            "max_abs_a": max_abs,
            "max_rel": max_abs / scale,
            "injected_a": float(injected.sum()),
            "supply_return_a": float(self.supply.current.sum()),
        }

    # -- aggregation -----------------------------------------------------------

    def layer_dissipation(self) -> Dict[str, float]:
        """Dissipated power per layer mesh, watts."""
        return {
            key: float(group.dissipation().sum())
            for key, group in self.mesh.items()
        }

    def _mesh_group(self, key: str) -> BranchGroup:
        group = self.mesh.get(key)
        if group is None:
            raise SolverError(f"unknown layer {key!r}")
        return group

    def _endpoint_field(self, key: str, values: np.ndarray) -> np.ndarray:
        """Scatter one value per mesh edge of layer ``key`` onto both of
        the edge's endpoint nodes; returns the layer field (ny, nx)."""
        group = self._mesh_group(key)
        sl = self.model.layer_slice(key)
        grid = self.model.layer_grid(key)
        field = np.zeros(self.model.num_nodes)
        np.add.at(field, group.a, values)
        np.add.at(field, group.b, values)
        return field[sl].reshape(grid.ny, grid.nx)

    def layer_dissipation_map(self, key: str) -> np.ndarray:
        """Per-node dissipation field of one layer, shape (ny, nx), watts.

        Each edge's power splits evenly onto its two endpoint nodes --
        the standard lumping that keeps the total exact while giving a
        plottable per-node heat field.
        """
        return self._endpoint_field(
            key, 0.5 * self._mesh_group(key).dissipation()
        )

    def layer_current_density(self, key: str) -> np.ndarray:
        """Lateral current magnitude per node of one layer, amperes.

        The mean magnitude of the mesh-edge currents incident on each
        node -- a hotspot field for current-density (EM-style)
        screening.
        """
        group = self._mesh_group(key)
        total = self._endpoint_field(key, np.abs(group.current))
        counts = self._endpoint_field(key, np.ones(group.count))
        counts[counts == 0] = 1
        return total / counts

    def worst_lateral_hotspot(self, key: str) -> Tuple[Tuple[int, int], float]:
        """((i, j) grid index, current A) of the layer's worst lateral node."""
        density = self.layer_current_density(key)
        j, i = np.unravel_index(int(np.argmax(density)), density.shape)
        return (int(i), int(j)), float(density[j, i])

    def total_dissipation(self) -> float:
        """Total dissipated power over every branch, watts."""
        return float(sum(g.dissipation().sum() for g in self.groups()))


def extract_branches(model: StackModel, drops: np.ndarray) -> "StackBranches":
    """Recover every branch current of ``model`` under solution ``drops``."""
    if drops.shape != (model.num_nodes,):
        raise SolverError(
            f"drop vector has shape {drops.shape}, expected "
            f"({model.num_nodes},)"
        )
    mesh: Dict[str, BranchGroup] = {}
    for key in model.layer_keys:
        a, b, g = model.mesh_edge_arrays(key)
        mesh[key] = BranchGroup(
            kind="mesh",
            layer=key,
            a=a,
            b=b,
            g=g,
            current=g * (drops[a] - drops[b]),
        )
    la, lb, lg = model.link_arrays()
    links = BranchGroup(
        kind="link",
        layer=None,
        a=la,
        b=lb,
        g=lg,
        current=lg * (drops[la] - drops[lb]) if la.size else lg.copy(),
    )
    sa, sg = model.supply_arrays()
    supply = BranchGroup(
        kind="supply",
        layer=None,
        a=sa,
        b=np.full(sa.size, -1, dtype=np.int64),
        g=sg,
        # The eliminated supply node sits at drop 0, so the branch drop
        # is the node's own drop.
        current=sg * drops[sa] if sa.size else sg.copy(),
    )
    return StackBranches(model, drops, mesh, links, supply)

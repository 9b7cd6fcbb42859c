"""Uniform 2D grids used to discretize dies into mesh nodes.

A :class:`Grid2D` covers a die outline with ``nx`` x ``ny`` nodes placed at
cell centers.  Meshes, power maps and TSV snap logic all share this
discretization so that node indices line up between layers and dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.geometry.primitives import Point, Rect


@dataclass(frozen=True)
class Grid2D:
    """A uniform grid of ``nx`` x ``ny`` nodes over ``outline``.

    Nodes sit at cell centers: node (i, j) is at
    ``(x0 + (i + 0.5) * dx, y0 + (j + 0.5) * dy)``.  Index ``i`` runs along
    x (0 .. nx-1), ``j`` along y (0 .. ny-1).  The flat node id is
    ``j * nx + i`` (row-major in y), matching how conductance matrices are
    assembled in :mod:`repro.rmesh`.
    """

    outline: Rect
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid must have at least 1x1 nodes, got {self.nx}x{self.ny}")
        if self.outline.width <= 0.0 or self.outline.height <= 0.0:
            raise ValueError("grid outline must have positive area")

    @classmethod
    def from_pitch(cls, outline: Rect, pitch: float) -> "Grid2D":
        """Build a grid with node spacing as close to ``pitch`` (mm) as possible.

        At least 2 nodes are used per dimension so every die has a
        non-degenerate mesh.
        """
        if pitch <= 0.0:
            raise ValueError("pitch must be positive")
        nx = max(2, int(round(outline.width / pitch)))
        ny = max(2, int(round(outline.height / pitch)))
        return cls(outline, nx, ny)

    @property
    def dx(self) -> float:
        """Cell width in mm."""
        return self.outline.width / self.nx

    @property
    def dy(self) -> float:
        """Cell height in mm."""
        return self.outline.height / self.ny

    @property
    def num_nodes(self) -> int:
        return self.nx * self.ny

    def node_id(self, i: int, j: int) -> int:
        """Flat node id for grid index (i, j)."""
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise IndexError(f"grid index ({i}, {j}) out of range {self.nx}x{self.ny}")
        return j * self.nx + i

    def node_index(self, node: int) -> Tuple[int, int]:
        """Inverse of :meth:`node_id`."""
        if not (0 <= node < self.num_nodes):
            raise IndexError(f"node id {node} out of range {self.num_nodes}")
        return node % self.nx, node // self.nx

    def node_point(self, i: int, j: int) -> Point:
        """Physical location (cell center) of node (i, j)."""
        return Point(
            self.outline.x0 + (i + 0.5) * self.dx,
            self.outline.y0 + (j + 0.5) * self.dy,
        )

    def nearest_node(self, p: Point) -> Tuple[int, int]:
        """Grid index of the node nearest to ``p`` (clamped to the grid)."""
        i = int((p.x - self.outline.x0) / self.dx)
        j = int((p.y - self.outline.y0) / self.dy)
        return min(max(i, 0), self.nx - 1), min(max(j, 0), self.ny - 1)

    def nodes_in_rect(self, rect: Rect) -> List[Tuple[int, int]]:
        """All grid indices whose node centers fall inside ``rect``."""
        result: List[Tuple[int, int]] = []
        for i, j in self.iter_indices():
            if rect.contains(self.node_point(i, j)):
                result.append((i, j))
        return result

    def cell_rect(self, i: int, j: int) -> Rect:
        """The rectangle of cell (i, j)."""
        return Rect(
            self.outline.x0 + i * self.dx,
            self.outline.y0 + j * self.dy,
            self.outline.x0 + (i + 1) * self.dx,
            self.outline.y0 + (j + 1) * self.dy,
        )

    def iter_indices(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all (i, j) indices in flat-id order."""
        for j in range(self.ny):
            for i in range(self.nx):
                yield i, j

    def coverage_fractions(self, rect: Rect) -> np.ndarray:
        """Fraction of each grid cell's area covered by ``rect``.

        Returns an (ny, nx) array in [0, 1].  This is the rasterization
        primitive used to spread a block's power over mesh nodes
        proportionally to geometric overlap, which keeps power totals exact
        regardless of grid resolution.

        Each entry equals ``cell_rect(i, j).overlap_area(rect) / (dx * dy)``
        bit for bit: the per-axis overlap widths below are the same IEEE
        operations on the same operands, and their product commutes.
        """
        frac = np.zeros((self.ny, self.nx))
        # Only visit cells that can overlap, for speed on fine grids.
        dx, dy = self.dx, self.dy
        i_lo = max(0, int((rect.x0 - self.outline.x0) / dx) - 1)
        i_hi = min(self.nx, int((rect.x1 - self.outline.x0) / dx) + 2)
        j_lo = max(0, int((rect.y0 - self.outline.y0) / dy) - 1)
        j_hi = min(self.ny, int((rect.y1 - self.outline.y0) / dy) + 2)
        if i_lo >= i_hi or j_lo >= j_hi:
            return frac
        wx, x_apart = _axis_overlap(self.outline.x0, dx, i_lo, i_hi, rect.x0, rect.x1)
        wy, y_apart = _axis_overlap(self.outline.y0, dy, j_lo, j_hi, rect.y0, rect.y1)
        window = np.outer(wy, wx) / (dx * dy)
        # Disjoint cells are 0.0 outright, as overlap_area returns: a zero
        # product would inherit the sign of a -0.0 width on the other axis.
        window[y_apart] = 0.0
        window[:, x_apart] = 0.0
        frac[j_lo:j_hi, i_lo:i_hi] = window
        return frac


def _axis_overlap(
    origin: float, pitch: float, lo: int, hi: int, r0: float, r1: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Overlap of ``[r0, r1]`` with cells ``lo .. hi-1`` along one axis.

    Returns the widths ``min(c1, r1) - max(c0, r0)`` with Python's
    ``min``/``max`` semantics (first argument on ties, so signed zeros
    match :meth:`Rect.intersection`), and the cells that fail the axis's
    half of :meth:`Rect.intersects`, whose widths are meaningless.
    """
    # Edge k + 1 is ``origin + (k + 1) * pitch``: cell k's upper edge as
    # ``cell_rect`` computes it, and cell k + 1's lower edge.
    edges = origin + np.arange(lo, hi + 1) * pitch
    c0, c1 = edges[:-1], edges[1:]
    width = np.where(r1 < c1, r1, c1) - np.where(r0 > c0, r0, c0)
    return width, (r0 > c1) | (r1 < c0)

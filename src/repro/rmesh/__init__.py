"""R-Mesh: resistive-mesh IR-drop engine.

This is the stand-in for the paper's HSPICE flow (section 2.2): a
resistive mesh is built for each metal layer from design and technology
information, stacked into a 3D conductance network with vias, TSVs, bond
vias and package elements, and solved for the DC operating point.  Because
the network is purely resistive with DC current loads, the SPICE solution
is exactly the sparse linear solve performed here.

``reference`` provides the fine-discretization golden solver that plays
the role of Cadence EPS in the paper's Figure 4 validation.
"""

from repro.rmesh.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    SOLVER_ENV,
    make_operator,
    resolve_backend,
)
from repro.rmesh.branches import BranchGroup, StackBranches, extract_branches
from repro.rmesh.mesh import LayerMesh
from repro.rmesh.stack import StackModel
from repro.rmesh.solve import IRDropResult, StackSolver

__all__ = [
    "BranchGroup",
    "StackBranches",
    "extract_branches",
    "LayerMesh",
    "StackModel",
    "IRDropResult",
    "StackSolver",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "SOLVER_ENV",
    "make_operator",
    "resolve_backend",
]

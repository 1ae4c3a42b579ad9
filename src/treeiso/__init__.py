"""Exact order-restricted convex estimation on directed trees.

Minimizes a sum of strongly convex node losses plus one-sided difference
penalties over the edges of a directed tree.  Infinite penalty weights act
as hard inequality constraints, which covers isotonic regression and its
relaxations on chains, rooted trees and arbitrary directed trees.  The
solver certifies every answer with an exact dual (flow) vector.
"""

from .api import solve_tree
from .errors import (
    CertificateError,
    ContractViolationError,
    InternalInvariantError,
    MalformedInstanceError,
    TreeIsoError,
)
from .loss import Loss, QuarticQuadratic, WeightedQuadratic
from .oracle import enumerate_optimum, pava
from .solver import Problem, Solver, SolveStats, kkt_residual, objective_value
from .tree import DirectedTree, map_back, normalize

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "ContractViolationError",
    "DirectedTree",
    "InternalInvariantError",
    "Loss",
    "MalformedInstanceError",
    "Problem",
    "QuarticQuadratic",
    "Solver",
    "SolveStats",
    "TreeIsoError",
    "WeightedQuadratic",
    "enumerate_optimum",
    "kkt_residual",
    "map_back",
    "normalize",
    "objective_value",
    "pava",
    "solve_tree",
    "__version__",
]

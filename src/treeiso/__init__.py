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
from .oracle import pava
from .solver import kkt_residual, objective_value
from .tree import DirectedTree

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "ContractViolationError",
    "DirectedTree",
    "InternalInvariantError",
    "Loss",
    "MalformedInstanceError",
    "QuarticQuadratic",
    "TreeIsoError",
    "WeightedQuadratic",
    "kkt_residual",
    "objective_value",
    "pava",
    "solve_tree",
    "__version__",
]

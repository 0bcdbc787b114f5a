"""Iterated error-state Kalman filtering on product manifolds.

The package splits into a geometry layer (``so3``, ``sphere``,
``manifolds``), a generic filter (``filter``), concrete system models
(``lidar_inertial``, ``baseline``), and a simulation harness
(``trajectory``, ``harness``, ``cli``).
"""
from .errors import (
    ContractViolationError,
    CutLocusError,
    DimensionError,
    UpdateSolverError,
)
from .filter import (
    FilterState,
    SystemModel,
    UpdateConfig,
    UpdateDiagnostics,
    predict,
    update,
)
from .manifolds import Compound, Euclidean, Manifold, SO3, Sphere2, compound

__all__ = [
    "Compound",
    "ContractViolationError",
    "CutLocusError",
    "DimensionError",
    "Euclidean",
    "FilterState",
    "Manifold",
    "SO3",
    "Sphere2",
    "SystemModel",
    "UpdateConfig",
    "UpdateDiagnostics",
    "UpdateSolverError",
    "compound",
    "predict",
    "update",
]

__version__ = "0.1.0"

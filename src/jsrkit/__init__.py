"""jsrkit: joint spectral radius bounds and cocycle diagnostics.

A numpy library for finite families of complex matrices: exact
upper/lower bound sequences and their sandwich enclosure, pruned
branch-and-bound, finite-horizon extremal norms with certified operator
norms, invariant splittings along periodic symbol orbits, cone
propagation, Sturmian words and periodic-orbit approximation of
shift-invariant sets, and exact cycle means on weighted digraphs.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundsReport,
    BudgetCounter,
    BudgetExceededError,
    MatrixSet,
    fit_rate,
    pruned_bounds,
    rho_minus_n,
    rho_plus_n,
    sandwich,
)
from .cocycle import (
    ConeParams,
    LowerBoundCertificate,
    certify_lower,
    cone_contains,
    cone_margin,
    cone_propagation_check,
    detect_p,
    finite_splitting,
    splitting_residuals,
)
from .cycles import WeightedGraph, max_cycle_mean, path_max_average
from .extremal import (
    AdaptedNorm,
    EuclideanNorm,
    extremality_residual,
    is_product_bounded,
    y_membership,
)
from .linalg import (
    ProjectionPair,
    Subspace,
    grassmann_distance,
    max_unit_distance,
    operator_norm,
    projection_from_pair,
    right_singular_subspaces,
    singular_values,
    spectral_radius,
)
from .shiftspace import (
    PeriodicOrbitSet,
    PeriodicWord,
    ShiftPoint,
    SturmianSystem,
    epsilon_of_n,
    periodic_approximant,
    shift_distance,
    sturmian_word,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""jsrkit: joint spectral radius bounds and cocycle diagnostics.

A numpy library for finite families of real or complex matrices: exact
upper/lower bound sequences and their sandwich enclosure, pruned
branch-and-bound, finite-horizon extremal norms with certified operator
norms, invariant splittings along periodic symbol orbits, cone
propagation, Sturmian words and periodic-orbit approximation of
shift-invariant sets, and exact cycle means on weighted digraphs.

The public names are resolved on first access (PEP 562), so ``import
jsrkit`` loads no submodule and no numpy; each name imports the one
submodule that defines it.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; a submodule maps to itself
_EXPORTS = {
    "bounds": "bounds",
    "BoundsReport": "bounds",
    "BudgetCounter": "budget",
    "BudgetExceededError": "budget",
    "MatrixSet": "bounds",
    "fit_rate": "bounds",
    "pruned_bounds": "bounds",
    "rho_minus_n": "bounds",
    "rho_plus_n": "bounds",
    "sandwich": "bounds",
    "cocycle": "cocycle",
    "ConeParams": "cocycle",
    "LowerBoundCertificate": "cocycle",
    "certify_lower": "cocycle",
    "cone_contains": "cocycle",
    "cone_margin": "cocycle",
    "cone_propagation_check": "cocycle",
    "detect_p": "cocycle",
    "finite_splitting": "cocycle",
    "splitting_residuals": "cocycle",
    "cycles": "cycles",
    "WeightedGraph": "cycles",
    "max_cycle_mean": "cycles",
    "path_max_average": "cycles",
    "extremal": "extremal",
    "AdaptedNorm": "extremal",
    "EuclideanNorm": "extremal",
    "extremality_residual": "extremal",
    "is_product_bounded": "extremal",
    "y_membership": "extremal",
    "linalg": "linalg",
    "ProjectionPair": "linalg",
    "Subspace": "linalg",
    "grassmann_distance": "linalg",
    "max_unit_distance": "linalg",
    "operator_norm": "linalg",
    "projection_from_pair": "linalg",
    "right_singular_subspaces": "linalg",
    "singular_values": "linalg",
    "spectral_radius": "linalg",
    "shiftspace": "shiftspace",
    "PeriodicOrbitSet": "shiftspace",
    "PeriodicWord": "shiftspace",
    "ShiftPoint": "shiftspace",
    "SturmianSystem": "shiftspace",
    "epsilon_of_n": "shiftspace",
    "periodic_approximant": "shiftspace",
    "shift_distance": "shiftspace",
    "sturmian_word": "shiftspace",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = importlib.import_module("." + _EXPORTS[name], __name__)
    value = module if name == _EXPORTS[name] else getattr(module, name)
    globals()[name] = value
    return value

#!/usr/bin/env python3
"""Constructing the fast/slow splitting along a periodic orbit.

For the single matrix [[1, 1], [0, 1/2]] the invariant decomposition is
known in closed form (eigenvectors e1 and (2, -1)/sqrt(5)), so the
finite-horizon construction from singular subspaces can be checked
directly: the fast space is the push-forward of the top right singular
subspace at doubled horizon, the slow space the bottom right singular
subspace, and both converge at the contraction rate 1/2 per step.
"""

import math

import numpy as np

import jsrkit as jk
from jsrkit.shiftspace import PeriodicWord

mset = jk.MatrixSet([[[1.0, 1.0], [0.0, 0.5]]])
orbit = PeriodicWord([0])

p, thetas = jk.detect_p(mset, orbit)
print("cumulative growth exponents per step, from the eigenvalue moduli:", ["%.4f" % t for t in thetas])
print("fast dimension p =", p)

oracle_fast = jk.Subspace([[1], [0]])
oracle_slow = jk.Subspace(np.array([[2.0], [-1.0]]) / math.sqrt(5))

print()
print("horizon   dGr(V_n, fast eigvec)   dGr(W_n, slow eigvec)")
for n in (2, 4, 8, 12, 16):
    result = jk.finite_splitting(mset, orbit, p, n)
    print(
        "%-8d  %.3e               %.3e"
        % (n, jk.grassmann_distance(result.V, oracle_fast),
           jk.grassmann_distance(result.W, oracle_slow))
    )

diag = jk.splitting_residuals(mset, orbit, p, 24)
print()
print("invariance residual:   %.3e" % diag.invariance_residual)
print("projection commutator: %.3e" % diag.commutation_residual)
print("slow-space contraction xi = %.4f (R^2 %.5f)" % (diag.xi_hat, diag.contraction_r2))
print("Cauchy rate of V_n:    %.4f (R^2 %.5f)" % (diag.cauchy_rate, diag.cauchy_r2))
print("uniform expansion on V: delta = %.6f" % diag.delta_hat)

from jsrkit.cocycle import cone_params_from_splitting, cone_propagation_check

params = cone_params_from_splitting(mset, orbit, theta=0.25)
rep = cone_propagation_check(mset, orbit, params, N=6, laps=3)
print()
print("cone propagation over 3 blocks of 6 steps: ok =", rep.ok)
print("measured per-block aperture shrink: %.5f (xi^N = %.5f)" % (
    rep.measured_aperture_ratio, diag.xi_hat**6))

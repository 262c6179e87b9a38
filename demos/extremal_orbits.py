#!/usr/bin/env python3
"""Finite-horizon extremal norms and the orbits that keep norm one.

After scaling the antidiagonal pair by 1/sqrt(2) its joint spectral
radius is 1.  The Euclidean norm is not extremal (one generator still
expands some vector), but the scaled-product norm repairs this already
at depth 1.  Along the alternating orbit every partial product keeps
adapted norm exactly 1; along the constant orbit the norm collapses at
the second step, which rules that orbit out of the extremal set.

Whether the products of the pair divided by a guess stay bounded is read
from the sandwich enclosure of its jsr: growth below the jsr, bounded
above it, and inconclusive at the jsr itself.
"""

import math

import jsrkit as jk
from jsrkit.extremal import extremality_residual, is_product_bounded
from jsrkit.gallery import antidiagonal_pair
from jsrkit.shiftspace import PeriodicWord

scaled = antidiagonal_pair().scaled(1 / math.sqrt(2))

euclid = jk.EuclideanNorm()
print("one-step expansion residual under the Euclidean norm: %.6f"
      % extremality_residual(scaled, euclid, rho_hat=1.0).value)

for depth in (1, 2, 4, 6):
    norm = jk.AdaptedNorm(scaled, rho_hat=1.0, depth=depth)
    res = extremality_residual(scaled, norm, rho_hat=1.0)
    print("depth %d adapted norm residual: %.2e" % (depth, res.value))

norm = jk.AdaptedNorm(scaled, rho_hat=1.0, depth=6)
print()
for cycle in ((0, 1), (0,), (1,)):
    rep = jk.y_membership(scaled, norm, PeriodicWord(cycle), depth=8)
    values = " ".join("%.4f" % v for v in rep.values)
    print("orbit %-6s -> %-14s partial-product norms: %s" % (cycle, rep.verdict, values))

print()
print("the alternating orbit is consistent with extremality to depth 8;")
print("constant orbits lose half their norm every two steps and are rejected")

print()
for guess in (0.9, 1.0, 1.1):
    result = is_product_bounded(scaled, 12, guess)
    print("products of the pair / %.1f: %s (jsr in [%.6f, %.6f])"
          % (guess, result.verdict, result.report.best_lower(), result.report.best_upper()))

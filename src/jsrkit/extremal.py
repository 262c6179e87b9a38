"""Finite-horizon extremal norms and membership tests for extremal orbits.

A norm is extremal for a matrix family when no single matrix expands it
beyond the joint spectral radius.  Extremal norms exist whenever the
normalised family is product bounded, but no construction is available
in general; here they are approximated by the scaled-product maximum

    |||v||| = max over k <= N, |w| = k of  rho_hat^(-k) ||A_w v||,

which is a genuine norm for every horizon N and increases towards an
extremal norm as N grows (when rho_hat is right).  On a normalised
family the set of symbol sequences whose partial products keep norm one
is the candidate extremal set; membership along a periodic word is
checked to finite depth and reported as consistent or rejected.

Norm protocol.  Every function of the package that takes a ``norm``
accepts an object with

- ``kind``: ``"euclidean"`` or another string;
- ``label``: the name written to reports;
- ``vector_norm(v)`` and ``vector_norms(V)``, the latter over the
  columns of a d x r array;
- ``matrix_norm(M)``: the induced operator norm of one matrix;
- ``matrix_norms_batch(P)``: operator norms of a stack of matrices,
  required unless ``kind == "euclidean"``.  It must be exact on every
  word that can reach the batch maximum or its ``TIE_RTOL`` tie window,
  and may read ``-inf`` on the others.

The bound sequences of :mod:`jsrkit.bounds` also accept ``None``.  There,
None and any norm of kind ``"euclidean"`` (:class:`EuclideanNorm`) take
the screened Gram-based level kernel and the norm object is not called;
other norms, such as :class:`AdaptedNorm`, are called through
``matrix_norms_batch`` on whole levels.  :class:`AdaptedNorm` screens
its own candidate pass with the level screen of :mod:`jsrkit.bounds`.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds, linalg
from .bounds import BudgetCounter, BudgetExceededError, sandwich

__all__ = [
    "EuclideanNorm",
    "AdaptedNorm",
    "NormalizationError",
    "ExtremalityResidual",
    "extremality_residual",
    "ProductBoundedness",
    "is_product_bounded",
    "YMembershipReport",
    "y_membership",
    "BOUNDED",
    "GROWTH",
    "INCONCLUSIVE",
]

# |||A(x,n)||| may deviate from 1 by this much before a verdict is drawn
Y_MEMBERSHIP_TOL = 1e-6
# AdaptedNorm.matrix_norms_batch re-evaluates this many of the largest
# candidate values with the full single-matrix search
REFINE_TOP = 16


class NormalizationError(ValueError):
    """The matrix set is not normalised closely enough to jsr = 1."""


class EuclideanNorm:
    """The Euclidean vector norm and its induced operator norm."""

    kind = "euclidean"
    label = "euclidean"

    def vector_norm(self, v):
        return float(np.linalg.norm(v))

    def vector_norms(self, V):
        return np.linalg.norm(np.asarray(V, dtype=complex), axis=0)

    def matrix_norm(self, M):
        return float(np.linalg.norm(M, 2))

    def __repr__(self):
        return "EuclideanNorm()"


def _phase_mesh(d):
    """A fixed, deterministic set of unit vectors in C^d."""
    cols = [np.eye(d, dtype=complex)[:, j] for j in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            for factor in (1.0, -1.0, 1j, -1j):
                v = np.zeros(d, dtype=complex)
                v[i] = 1.0
                v[j] = factor
                cols.append(v / np.sqrt(2.0))
    return np.column_stack(cols)


class AdaptedNorm:
    """Scaled-product maximum norm at a finite horizon.

    Parameters
    ----------
    mset : MatrixSet
        The family whose products define the norm.
    rho_hat : float
        Working estimate of the joint spectral radius; products of
        length k are scaled by rho_hat**(-k).
    depth : int
        Horizon N; all words up to this length enter the maximum.
    """

    kind = "adapted"

    def __init__(self, mset, rho_hat, depth, budget=None):
        if rho_hat <= 0:
            raise ValueError("rho_hat must be positive")
        if depth < 0:
            raise ValueError("depth must be non-negative")
        counter = budget if isinstance(budget, BudgetCounter) else BudgetCounter(budget)
        m, d = len(mset), mset.d
        needed = sum(m**k for k in range(1, depth + 1))
        if needed > counter.limit - counter.used:
            feasible = 0
            total = 0
            while total + m ** (feasible + 1) <= counter.limit - counter.used:
                feasible += 1
                total += m**feasible
            raise BudgetExceededError(
                needed, counter.limit, "largest feasible depth is %d" % feasible
            )
        self.mset = mset
        self.rho_hat = float(rho_hat)
        self.depth = int(depth)
        self.label = "adapted(depth=%d, rho_hat=%.6g)" % (self.depth, self.rho_hat)

        blocks = [np.eye(d)[None]]
        for k, level in bounds._iter_levels(mset, depth, counter):
            blocks.append(level * self.rho_hat ** (-k))
        family = np.concatenate(blocks)
        # L = max_f ||F_f||_2, the factor of the screening bound L * ||P||_F
        self._family_norm = float(bounds._euclidean_norms(family).max())
        self._flat = family.reshape(-1, d)  # (f*d, d) stacked for fast apply
        self._family_size = family.shape[0]
        self._mesh = _phase_mesh(d)
        self._mesh_norms = None

    @property
    def d(self):
        return self.mset.d

    def vector_norms(self, V):
        """Norms of the columns of a d x r array."""
        V = np.asarray(V, dtype=complex)
        if V.ndim == 1:
            V = V[:, None]
        if V.shape[0] != self.d:
            raise linalg.DimensionError("vectors must live in C^%d" % self.d)
        images = (self._flat @ V).reshape(self._family_size, self.d, -1)
        return np.linalg.norm(images, axis=1).max(axis=0)

    def vector_norm(self, v):
        return float(self.vector_norms(np.asarray(v, dtype=complex))[0])

    def _refine(self, M, v0):
        # imported here: only refined adapted norms need scipy
        from scipy import optimize

        d, fam = self.d, self._family_size
        flat = self._flat
        flat_m = flat @ M

        def ratio(v):
            num = np.sqrt((np.abs(flat_m @ v) ** 2).reshape(fam, d).sum(axis=1)).max()
            den = np.sqrt((np.abs(flat @ v) ** 2).reshape(fam, d).sum(axis=1)).max()
            return num / den if den > 0 else 0.0

        def objective(x):
            v = x[:d] + 1j * x[d:]
            nv = np.linalg.norm(v)
            if nv < 1e-12:
                return 0.0
            return -ratio(v / nv)

        x0 = np.concatenate([v0.real, v0.imag])
        res = optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-12, "maxiter": 300},
        )
        return max(-float(res.fun), ratio(v0))

    def matrix_norm(self, M, refine=True):
        """Induced operator norm by deterministic search over the sphere.

        Candidates are a fixed phase mesh, the right singular vectors of
        M, and the top right singular vectors of every family element
        applied to M; the best candidate is polished with a local
        simplex search.  The result is a certified lower bound on the
        true operator norm that is exact in practice for the small
        families used here.
        """
        M = linalg.as_matrix(M)
        if M.shape != (self.d, self.d):
            raise linalg.DimensionError("matrix must be %d x %d" % (self.d, self.d))
        cands = [self._mesh]
        _, _, vh = np.linalg.svd(M)
        cands.append(vh.conj().T)
        stacked = (self._flat @ M).reshape(self._family_size, self.d, self.d)
        tops = np.linalg.svd(stacked)[2][:, 0, :].conj().T  # (d, f)
        cands.append(tops)
        C = np.column_stack(cands)
        num = self.vector_norms(M @ C)
        den = self.vector_norms(C)
        ratios = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
        best = int(np.argmax(ratios))
        value = float(ratios[best])
        if refine:
            value = max(value, self._refine(M, C[:, best] / np.linalg.norm(C[:, best])))
        return value

    def matrix_norms_batch(self, P):
        """Operator norms of a batch of matrices, screened.

        A cheap candidate pass (fixed mesh plus each matrix's own top
        right singular vector) ranks the batch; the ``REFINE_TOP``
        highest entries are then re-evaluated with the full single-matrix
        search.  The cheap pass is screened by the level screen of
        :mod:`jsrkit.bounds` with the bound

            cheap(M) <= |||M||| <= max_f ||F_f M||_2 <= L ||M||_2 <= L ||M||_F,

        where ``L = max_f ||F_f||_2`` over the norm's family ``F``, which
        contains the identity, so ``|||v||| >= ||v||``.  It runs only on
        words that can enter the ``REFINE_TOP`` largest cheap values; the
        others read ``-inf``.  Their bound lies below the ``REFINE_TOP``-th
        cheap value less ``SCREEN_SLACK``, so the refined values, the
        maximum, its lexicographically first argmax and the ``TIE_RTOL``
        tie window equal those of running the cheap pass on every word.
        One caveat holds with or without the screen: the cheap values of a
        batch come from one gemm, so a value's last bit can depend on the
        word's position in the batch.
        """
        P = np.asarray(P)
        mesh = self._mesh
        if self._mesh_norms is None:
            self._mesh_norms = self.vector_norms(mesh)
        den_mesh = self._mesh_norms
        f, d = self._family_size, self.d
        flat = self._flat
        r = mesh.shape[1]

        def columnwise(V):
            # V is (d, K): adapted norms of the K columns via one gemm
            Y = flat @ V
            sq = (Y.real**2 + Y.imag**2).reshape(f, d, -1).sum(axis=1)
            return np.sqrt(sq.max(axis=0))

        def cheap(chunk):
            mc = len(chunk)
            X = (chunk @ mesh).transpose(1, 0, 2).reshape(d, mc * r)
            num = columnwise(X).reshape(mc, r)
            vals = (num / den_mesh).max(axis=1)
            # each matrix's own top right singular vector as an extra candidate
            tops = np.linalg.svd(chunk)[2][:, 0, :].conj()  # (mc, d)
            Mt = np.einsum("mab,mb->ma", chunk, tops)
            num_t = columnwise(Mt.T)
            den_t = columnwise(tops.T)
            vals_t = np.where(den_t > 0, num_t / np.maximum(den_t, 1e-300), 0.0)
            return np.maximum(vals, vals_t)

        chunk_size = max(256, 2_000_000 // max(1, f * r))

        def chunked(Q):
            Q = np.asarray(Q, dtype=complex)
            return np.concatenate(
                [cheap(Q[i : i + chunk_size]) for i in range(0, len(Q), chunk_size)]
            )

        # below SCREEN_FLOOR, ||P||_F may have lost its squares to underflow,
        # but the true value is below SCREEN_FLOOR as well
        fro = np.maximum(bounds._frobenius_norms(P), bounds.SCREEN_FLOOR)
        values = bounds._screened(self._family_norm * fro, chunked, P, rank=REFINE_TOP)
        # refinement only raises a value, by at most a modest factor, so
        # candidates already more than 10% below the running best cannot
        # change the maximum and are left alone
        order = np.argsort(-values, kind="stable")[:REFINE_TOP]
        best = 0.0
        for idx in order:
            if values[idx] < 0.9 * best:
                break
            values[idx] = max(values[idx], self.matrix_norm(P[idx], refine=True))
            best = max(best, values[idx])
        return values

    def __repr__(self):
        return "AdaptedNorm(depth=%d, rho_hat=%g, |family|=%d)" % (
            self.depth,
            self.rho_hat,
            self._family_size,
        )


@dataclass(frozen=True)
class ExtremalityResidual:
    value: float
    samples: int


def extremality_residual(mset, norm, samples=4096, rho_hat=None, seed=0):
    """Worst relative one-step expansion of the norm over the family.

    Samples unit vectors (seeded) plus every singular vector of every
    matrix in the family, and returns
    ``max (|||A v||| / |||v||| - rho_hat) / rho_hat`` clipped at zero.
    A true extremal norm for the rho_hat-normalised family gives 0.
    """
    if rho_hat is None:
        rho_hat = getattr(norm, "rho_hat", 1.0)
    d = mset.d
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((d, samples)) + 1j * rng.standard_normal((d, samples))
    V = raw / np.linalg.norm(raw, axis=0)
    fixed = [_phase_mesh(d)]
    for A in mset.matrices:
        u, _, vh = np.linalg.svd(A)
        fixed.append(u)
        fixed.append(vh.conj().T)
    C = np.column_stack([V] + fixed)
    den = norm.vector_norms(C)
    worst = 0.0
    for A in mset.matrices:
        num = norm.vector_norms(A @ C)
        ratios = num / np.maximum(den, 1e-300)
        worst = max(worst, float(ratios.max()))
    value = max(0.0, (worst - rho_hat) / rho_hat)
    return ExtremalityResidual(value=value, samples=C.shape[1])


BOUNDED = "bounded-up-to-depth"
GROWTH = "growth-detected"
INCONCLUSIVE = "inconclusive"


@dataclass
class ProductBoundedness:
    verdict: str
    level_maxima: list
    bound_guess: float


def is_product_bounded(mset, depth, bound_guess, budget=None):
    """Classify the growth of per-length maximal product norms.

    ``GROWTH`` requires both that some product norm exceeds
    ``bound_guess`` and that the per-length maxima increase strictly over
    the last third of the levels; all maxima below the guess gives
    ``BOUNDED``; anything else (including exhausting the budget) is
    ``INCONCLUSIVE``.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    counter = budget if isinstance(budget, BudgetCounter) else BudgetCounter(budget)
    maxima = []
    try:
        for _, P in bounds._iter_levels(mset, depth, counter):
            norms = bounds._screened(bounds._frobenius_norms(P), bounds._euclidean_norms, P)
            maxima.append(float(norms.max()))
    except BudgetExceededError:
        return ProductBoundedness(INCONCLUSIVE, maxima, bound_guess)
    exceeded = any(v > bound_guess for v in maxima)
    tail_start = len(maxima) - max(1, len(maxima) // 3)
    tail = maxima[tail_start - 1 :]
    strictly_increasing = all(b > a for a, b in zip(tail, tail[1:]))
    if exceeded and strictly_increasing:
        return ProductBoundedness(GROWTH, maxima, bound_guess)
    if not exceeded:
        return ProductBoundedness(BOUNDED, maxima, bound_guess)
    return ProductBoundedness(INCONCLUSIVE, maxima, bound_guess)


@dataclass
class YMembershipReport:
    """Finite-depth evidence about membership in the extremal set.

    ``margins[n-1]`` is ``1 - |||A(x, n)|||``.  The verdict is
    ``"consistent"`` unless some partial product's norm drops below
    ``1 - tol`` (rejection at the first such depth).  Norms exceeding
    ``1 + tol`` do not reject; they indicate the norm itself is not yet
    extremal and are listed separately.
    """

    word: object
    depth: int
    values: list
    margins: list
    verdict: str
    rejected_at: int = None
    excess_at: list = field(default_factory=list)


def y_membership(mset, norm, pword, depth, tol=Y_MEMBERSHIP_TOL):
    """Track |||A(x, n)||| along a periodic word for n = 1..depth."""
    pword.validate_for(mset)
    estimate = _coarse_jsr_estimate(mset)
    if abs(estimate - 1.0) > 0.2:
        raise NormalizationError(
            "working jsr estimate %.4f differs from 1 by more than 20%%; "
            "scale the set first" % estimate
        )
    values, margins, excess = [], [], []
    verdict, rejected_at = "consistent", None
    for n in range(1, depth + 1):
        v = norm.matrix_norm(mset.product(pword.prefix(n)))
        values.append(v)
        margins.append(1.0 - v)
        if v > 1.0 + tol:
            excess.append(n)
        if v < 1.0 - tol:
            verdict, rejected_at = "rejected-at-%d" % n, n
            break
    return YMembershipReport(
        word=pword,
        depth=len(values),
        values=values,
        margins=margins,
        verdict=verdict,
        rejected_at=rejected_at,
        excess_at=excess,
    )


def _coarse_jsr_estimate(mset, depth=4):
    report = sandwich(mset, depth, budget=BudgetCounter(10**6))
    if not report.rows:
        raise NormalizationError("could not form a working jsr estimate")
    lo, hi = report.best_lower(), report.best_upper()
    if lo <= 0:
        return hi
    return math.sqrt(lo * hi)

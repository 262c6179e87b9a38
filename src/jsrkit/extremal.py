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

Certified operator norms.  With ``F`` the scaled products (the identity
among them), ``|||v||| = max_f ||F_f v||`` and, for weights lambda in the
simplex, ``|||v|||^2 >= sum_g lambda_g ||F_g v||^2 = v^H G_lambda v``.
Hence, with ``H_f = (F_f M)^H (F_f M)`` and ``L = max_f ||F_f||_2``,

    |||M||| <= max_f min_lambda sqrt(lambda_max(H_f, G_lambda))
            <= max_f ||F_f M||_2 <= L ||M||_2 <= L ||M||_F,

an S-procedure bound (Polik and Terlaky, SIAM Review 49, 2007).  Every
lambda gives a sound value, so :class:`AdaptedNorm` reports, for
``matrix_norm`` and ``matrix_norms_batch`` alike, certified upper values
of ``|||M|||`` (up to roundoff; see ``matrix_norms_batch``): the least
value over the weights it tries, without any search over vectors.

Norm protocol.  Every function of the package that takes a ``norm``
accepts an object with

- ``kind``: ``"euclidean"`` or another string;
- ``label``: the name written to reports;
- ``vector_norm(v)`` and ``vector_norms(V)``, the latter over the
  columns of a d x r array;
- ``matrix_norm(M)``: the induced operator norm of one matrix, or a
  certified upper value of it;
- ``matrix_norms_batch(P)``: the same values for a stack of matrices,
  required unless ``kind == "euclidean"``.  It must return them on every
  word that can reach the batch maximum or its ``TIE_RTOL`` tie window,
  and may read ``-inf`` on the others.

The bound sequences of :mod:`jsrkit.bounds` also accept ``None``.  There,
None and any norm of kind ``"euclidean"`` (:class:`EuclideanNorm`) take
the screened Gram-based level kernel and the norm object is not called;
other norms, such as :class:`AdaptedNorm`, are called through
``matrix_norms_batch`` on whole levels.  :class:`AdaptedNorm` screens
its certified kernel with the level screen of :mod:`jsrkit.bounds`.
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

# The certified kernel of AdaptedNorm (AdaptedNorm.matrix_norms_batch).
# exponentiated-gradient steps per (matrix, member) pair at most
DESCENT_STEPS = 100
# a pair stops descending once its value is within this of a lower value
DESCENT_RTOL = 1e-12
# total weight floor: the members other than the identity share it, so
# that they cost at most about this much relative tightness; the identity's
# share keeps cond(G_lambda) <= 1 / WEIGHT_FLOOR, which caps the roundoff
# of a Cholesky-based pencil value, about 2**-54 * cond(G_lambda) relative
WEIGHT_FLOOR = 1e-12
# single-member weights are tried on the members of at most this condition
# number, so that their values carry a roundoff of about 1e4 * 2**-53
SINGLE_MEMBER_COND = 1e4
# matrices per block of the kernel's temporaries
CERTIFY_BLOCK = 1 << 14


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

    ``|||v||| = max_f ||F_f v||`` over the family ``F = {rho_hat^(-k) A_w :
    |w| = k <= N}``, which contains the identity (the empty word), so
    ``|||v||| >= ||v||``.  Operator norms are certified upper values of
    ``|||M|||``; see :meth:`matrix_norms_batch`.

    Parameters
    ----------
    mset : MatrixSet
        The family whose products define the norm.
    rho_hat : float
        Working estimate of the joint spectral radius; products of
        length k are scaled by rho_hat**(-k).  Must be positive and finite.
    depth : int
        Horizon N; all words up to this length enter the maximum.
    """

    kind = "adapted"

    def __init__(self, mset, rho_hat, depth, budget=None):
        if not 0.0 < rho_hat < math.inf:
            raise ValueError("rho_hat must be positive and finite")
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

        # rho_hat = mant * 2**exp: the power-of-two part scales the set
        # exactly, so no power of rho_hat or product overflows at depth
        mant, exp = math.frexp(self.rho_hat)
        blocks = [np.eye(d)[None]]
        for k, level in bounds._iter_levels(mset.scaled(2.0 ** -exp), depth, counter):
            blocks.append(level * mant ** (-k))
        family = np.concatenate(blocks)
        self._family = family
        self._family_size = f = len(family)
        # L = max_f ||F_f||_2, the factor of the screening bound L * ||P||_F
        self._family_norm = float(bounds._euclidean_norms(family).max())
        # row g holds F_g^H F_g: weights @ rows is G_lambda
        self._grams = (np.swapaxes(family, 1, 2).conj() @ family).reshape(f, d * d)
        # the other members share WEIGHT_FLOOR; the identity's floor keeps
        # cond(G_lambda) <= 1 / WEIGHT_FLOOR, since ||G_lambda|| <= L**2
        self._floor = np.full(f, WEIGHT_FLOOR / f)
        self._floor[0] = WEIGHT_FLOOR * max(1.0, self._family_norm**2)
        self._single = np.nonzero(np.linalg.cond(family) <= SINGLE_MEMBER_COND)[0]
        self._inverses = np.linalg.inv(family[self._single])  # the identity first

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
        return np.linalg.norm(np.matmul(self._family, V), axis=1).max(axis=0)

    def vector_norm(self, v):
        return float(self.vector_norms(np.asarray(v, dtype=complex))[0])

    def _lower(self, M, u):
        """``|||M u||| / |||u|||`` per pair, and ``||F_g u||^2`` per pair and member."""
        X = np.stack([u, np.matmul(M, u[:, :, None])[:, :, 0]], axis=1)
        # ||F_g x||^2 = x^H (F_g^H F_g) x: one product with the rows of _grams
        O = (X.conj()[:, :, :, None] * X[:, :, None, :]).reshape(len(u), 2, self.d**2)
        a, b = np.moveaxis(np.matmul(O, self._grams.T).real, 1, 0)
        return np.sqrt(b.max(axis=1) / a.max(axis=1)), a

    def _gram(self, lam):
        """``G_lambda = sum_g lambda_g F_g^H F_g`` per row of weights."""
        return np.matmul(lam[:, None], self._grams).reshape(-1, self.d, self.d)

    def _pencil(self, Q, G):
        """``sqrt(lambda_max(Q^H Q, G))`` per pair, and a generalised
        eigenvector ``u`` with ``u^H G u = 1``."""
        inv_h = np.swapaxes(np.linalg.inv(np.linalg.cholesky(G)), 1, 2).conj()
        R = np.matmul(Q, inv_h)
        w, V = np.linalg.eigh(np.swapaxes(R, 1, 2).conj() @ R)
        return np.sqrt(np.maximum(w[:, -1], 0.0)), np.matmul(inv_h, V[:, :, -1:])[:, :, 0]

    def _descend(self, M, Q, floor, cutoff):
        """Certified values of the pairs ``Q[k] = F_f M[k]``, the weights
        each descent ended at, and which descents the cutoff stopped.

        Each value is the least ``sqrt(lambda_max(H_f, G_lambda))`` over
        the single-member weights and the iterates of an
        exponentiated-gradient descent, which starts halfway between the
        best single member and uniform weights.  A pair stops descending
        once its value is within ``DESCENT_RTOL`` of ``floor[k]`` or of the
        lower value ``|||M u||| / |||u|||`` at a generalised eigenvector
        ``u``, and otherwise after ``DESCENT_STEPS`` steps.  Short of that,
        a pair whose value falls below ``cutoff[k]`` stops early: its value
        is then below the cutoff, and no lower than its full descent's.
        """
        p, f, d = len(Q), self._family_size, self.d
        # lambda = e_g gives ||F_f M F_g^-1||_2; g = 0 is the identity
        QG = np.matmul(Q[:, None], self._inverses)
        single = bounds._euclidean_norms(QG.reshape(-1, d, d)).reshape(QG.shape[:2])
        g = self._single[np.argmin(single, axis=1)]
        best = single.min(axis=1)
        lower, _ = self._lower(M, self._pencil(Q, self._grams[g].reshape(p, d, d))[1])

        # ``anchor`` holds each pair's best iterate and its gradient; the
        # rate grows after an improving step and is halved, from the
        # anchor, after any other
        trial = np.full((p, f), 0.5 / f)
        trial[np.arange(p), g] += 0.5
        anchor, grad = trial.copy(), np.zeros((p, f))
        reached, rate = np.full(p, np.inf), np.ones(p)
        live, cut = np.arange(p), np.zeros(p, dtype=bool)
        for _ in range(DESCENT_STEPS):
            live = live[best[live] > (1.0 + DESCENT_RTOL) * np.maximum(floor[live], lower[live])]
            cut[live[best[live] < cutoff[live]]] = True
            live = live[~cut[live]]
            if not len(live):
                break
            lam = trial[live]
            value, u = self._pencil(Q[live], self._gram(lam))
            low, a = self._lower(M[live], u)
            best[live] = np.minimum(best[live], value)
            lower[live] = np.maximum(lower[live], low)
            better = value < reached[live]
            k = live[better]
            anchor[k], grad[k], reached[k] = lam[better], a[better], value[better]
            rate[live] *= np.where(better, 1.2, 0.5)
            # the relative gradient of 1 / value**2 in lambda_g is a_g - 1
            step = rate[live, None] * grad[live]
            lam = anchor[live] * np.exp(step - step.max(axis=1, keepdims=True))
            lam = np.maximum(lam / lam.sum(axis=1, keepdims=True), self._floor)
            trial[live] = lam / lam.sum(axis=1, keepdims=True)
        return best, anchor, cut

    def _certified(self, P, cutoff=-np.inf):
        """Certified upper values of ``|||M|||`` for the matrices ``M`` of ``P``.

        The pair ``(M, F_f)`` of largest ``||F_f M||_2`` (the first such f)
        is certified first.  Every other pair whose ``||F_f M||_2`` exceeds
        that value is then tried at the weights the first pair's descent
        ended at and, if it still exceeds that value by more than
        ``DESCENT_RTOL``, certified on its own.  A value depends on its own
        matrix only, not on the rest of ``P``.

        Given a ``cutoff``, the first pair's descent also stops once its
        value falls below it.  A matrix that such a cut leaves below the
        cutoff reads ``-inf``: its full value is below ``(1 + DESCENT_RTOL)``
        times the cutoff, since the values it was left with bound
        ``|||M|||``, and so the lower values at which the full descents may
        stop.  A matrix that a cut leaves at or above the cutoff is
        certified again without it.
        """
        f, d, n = self._family_size, self.d, len(P)
        step = max(1, CERTIFY_BLOCK // f)
        if n > step:
            blocks = [P[i:i + step] for i in range(0, n, step)]
            return np.concatenate([self._certified(block, cutoff) for block in blocks])
        # scaling by a power of two is exact and keeps the squares clear of
        # overflow and underflow
        scale = np.ldexp(1.0, np.frexp(np.abs(P).max(axis=(1, 2)))[1])
        M, c = P / scale[:, None, None], cutoff / scale
        FM = np.matmul(self._family, M[:, None])
        # the values of the identity weights, ||F_f M||_2
        ident = bounds._euclidean_norms(FM.reshape(n * f, d, d)).reshape(n, f)
        top = np.argmax(ident, axis=1)
        values, weights, cut = self._descend(M, FM[np.arange(n), top], np.zeros(n), c)
        i, g = np.nonzero((ident > values[:, None]) & (np.arange(f) != top[:, None]))
        more, _ = self._pencil(FM[i, g], self._gram(weights)[i])
        hard = np.nonzero(more > values[i] * (1.0 + DESCENT_RTOL))[0]
        for start in range(0, len(hard), step):
            k = hard[start:start + step]
            low = self._descend(M[i[k]], FM[i[k], g[k]], values[i[k]], np.full(len(k), -np.inf))[0]
            more[k] = np.minimum(more[k], low)
        np.maximum.at(values, i, more)
        redo = cut & (values >= c)
        values = np.where(cut & (values < c), -np.inf, values * scale)
        if redo.any():
            values[redo] = self._certified(P[redo])
        return values

    def matrix_norm(self, M):
        """Certified upper value of the induced operator norm ``|||M|||``,
        by the kernel of :meth:`matrix_norms_batch`."""
        M = linalg.as_matrix(M)
        if M.shape != (self.d, self.d):
            raise linalg.DimensionError("matrix must be %d x %d" % (self.d, self.d))
        return float(self._certified(M[None])[0])

    def matrix_norms_batch(self, P):
        """Certified upper values of the operator norms of a batch, screened.

        For weights lambda in the simplex, ``|||v|||^2 >= sum_g lambda_g
        ||F_g v||^2 = v^H G_lambda v`` (an S-procedure relaxation), so

            |||M||| <= max_f min_lambda sqrt(lambda_max(H_f, G_lambda)),
            H_f = (F_f M)^H (F_f M),

        with the generalised eigenvalue of the pencil ``(H_f, G_lambda)``.
        Every lambda gives a sound value; the kernel takes, per pair
        ``(M, F_f)``, the least value over ``lambda = e_g`` for the
        well-conditioned members ``F_g`` (``||F_f M F_g^-1||_2``; the
        identity among them gives ``||F_f M||_2``) and over
        exponentiated-gradient iterates on lambda, deterministically and
        without charging the budget.  So every value lies between
        ``|||M|||`` and

            max_f ||F_f M||_2 <= L ||M||_2 <= L ||M||_F,

        where ``L = max_f ||F_f||_2``, up to roundoff, as values are not
        outward-rounded: about ``SINGLE_MEMBER_COND * 2**-53`` relative on
        single-member values, and on the others up to about
        ``2**-54 * cond(G_lambda)``, which ``WEIGHT_FLOOR`` caps at 6e-5.

        The level screen of :mod:`jsrkit.bounds` evaluates only the words
        whose bound ``L ||M||_F`` can reach the batch maximum, and passes
        the kernel its running cutoff: the first descent of a word stops
        once it falls below the cutoff, and a word it leaves there reads
        ``-inf``, as do the words the bound screens out.  The maximum, its
        lexicographically first argmax and the ``TIE_RTOL`` tie window
        equal those of evaluating every word, since a word's value does not
        depend on the rest of the batch.
        """
        P = np.asarray(P)
        # below SCREEN_FLOOR, ||P||_F may have lost its squares to underflow,
        # but the true value is below SCREEN_FLOOR as well
        fro = np.maximum(bounds._frobenius_norms(P), bounds.SCREEN_FLOOR)
        return bounds._screened(self._family_norm * fro, self._certified, P, cutoff=True)

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
    ``1 - tol`` (rejection at the first such depth).  The values of
    :class:`EuclideanNorm` are the true norms and those of
    :class:`AdaptedNorm` certified upper values of them, so with either
    a rejection is sound up to roundoff.  Norms
    exceeding ``1 + tol`` do not reject; they indicate that the norm
    itself is not yet extremal, or that the upper value is not tight,
    and are listed separately as an indication only.
    """

    word: object
    depth: int
    values: list
    margins: list
    verdict: str
    rejected_at: int = None
    excess_at: list = field(default_factory=list)


def y_membership(mset, norm, pword, depth, tol=Y_MEMBERSHIP_TOL):
    """Track |||A(x, n)||| along a periodic word for n = 1..depth.

    ``norm.matrix_norm`` gives each value; for :class:`AdaptedNorm` it is
    a certified upper value, so a rejection is sound while the excess
    list stays an indication (:class:`YMembershipReport`).
    """
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

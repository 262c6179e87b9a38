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

Product boundedness.  Whether the products of ``A / g`` stay bounded for
a guess g is read from the sandwich enclosure of the jsr
(:func:`is_product_bounded`): a lower value above g proves growth, an
upper value below g proves boundedness, and an enclosure that holds g
decides nothing.

Certified operator norms.  With ``F`` the scaled products (the identity
among them), ``|||v||| = max_f ||F_f v||`` and, for weights lambda in the
simplex, ``|||v|||^2 >= sum_g lambda_g ||F_g v||^2 = v^H G_lambda v``.
Hence, with ``H_f = (F_f M)^H (F_f M)`` and ``L = max_f ||F_f||_2``,

    |||M||| <= max_f min_lambda sqrt(lambda_max(H_f, G_lambda))
            <= max_f ||F_f M||_2 <= L ||M||_2 <= L ||M||_F,

an S-procedure bound (Polik and Terlaky, SIAM Review 49, 2007).  Every
lambda gives a sound value, so :class:`AdaptedNorm` reports certified
upper values of ``|||M|||`` (up to roundoff; see
:meth:`AdaptedNorm._certified`): the least value over the weights it
tries, without any search over vectors.

Loewner pruning.  With ``G_g = F_g^H F_g``, a member g with ``G_g <= G_f``
(Loewner order) for another member f has ``||F_g v|| <= ||F_f v||`` for
every v, so dropping it leaves ``|||.|||`` unchanged; ``H_g <= H_f`` leaves
the outer maximum unchanged, and moving g's weight onto f turns any
``G_lambda`` into one that dominates it, so the S-procedure bound can
only tighten (Rota and Strang, 1960; Polik and Terlaky, 2007).
:class:`AdaptedNorm` keeps the identity and drops every member that a
kept member dominates, in one greedy pass of decreasing ``tr(G_g)``, and
evaluates and certifies with the kept members only.  A roundoff-level
misjudgement only yields a slightly different norm, whose level maxima
bound the joint spectral radius all the same.  The family of each
``data/`` fixture at depth 6 keeps 2 of 127 members.

Norm protocol.  Every function of the package that takes a ``norm``
calls it through the members of :class:`jsrkit.bounds.Norm`.  A norm
subclasses it and defines four:

- ``label``: the name written to reports;
- ``factor``: a constant L with ``matrix_norms(Q, c)[i] <= L ||Q_i||_F``,
  which makes ``L ||P||_F`` the bound of the level screen;
- ``vector_norms(V)``: the norms of the columns of a d x r array, of
  shape ``(r,)`` (a vector is one column);
- ``matrix_norms(Q, cutoff)``: the batched kernel, the induced operator
  norms of an array ``Q`` of matrices, or certified upper values of
  them.  It may read ``-inf`` on a matrix whose value lies below
  ``(1 + TIE_RTOL) * cutoff``; a cutoff of ``-inf`` asks for every value.

``Norm`` derives the other three, once: ``vector_norm(v)``;
``matrix_norm(M)``, one matrix through the kernel; and
``matrix_norms_batch(P, fro)``, the kernel under the level screen of
:mod:`jsrkit.bounds` for a stack ``P`` with upper bounds ``fro`` of its
Frobenius norms.
``P`` is any stack with ``len(P)`` and integer-array indexing, so a level
above ``LEVEL_BYTES`` may be a lazy stack that re-forms only the words
the screen evaluates.  The screen passes every batch but the first the
running cutoff, returns the values on every word that can reach the
batch maximum or its ``TIE_RTOL`` tie window, and ``-inf`` on the others.
The diagnostics read their stacks with one ``matrix_norms(Q, -inf)`` call
each.

:class:`EuclideanNorm` has the exact Gram-based kernel and factor 1;
:class:`AdaptedNorm` has the certified kernel :meth:`AdaptedNorm._certified`
and factor ``L = max_f ||F_f||_2``.  The entry points that take
``norm=None`` read it as the Euclidean norm.
"""

import bisect
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bounds, linalg
from .bounds import BudgetCounter, EuclideanNorm, sandwich

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

# The certified kernel of AdaptedNorm (AdaptedNorm._certified).
# exponentiated-gradient steps per (matrix, member) pair at most
DESCENT_STEPS = 100
# total weight floor: the members other than the identity share it, so
# that they cost at most about this much relative tightness; the identity's
# share keeps cond(G_lambda) <= 1 / WEIGHT_FLOOR, which caps the roundoff
# of a Cholesky-based pencil value, about 2**-54 * cond(G_lambda) relative
WEIGHT_FLOOR = 1e-12
# single-member weights are tried on the members of at most this condition
# number, so that their values carry a roundoff of about 1e4 * 2**-53
SINGLE_MEMBER_COND = 1e4


class NormalizationError(ValueError):
    """The matrix set is not normalised closely enough to jsr = 1."""


def _require_positive_finite(value, name):
    """Raise ``ValueError`` unless ``value`` is positive and finite."""
    if not 0.0 < value < math.inf:
        raise ValueError("%s must be positive and finite" % name)


def _undominated(grams):
    """Indices, in family order, of the members that no kept member
    Loewner-dominates.

    ``grams[g]`` is ``G_g = F_g^H F_g``, with the identity first.  One
    greedy pass keeps the identity, then takes the other members in
    decreasing ``tr(G_g)`` and drops g when ``lambda_max(G_g - G_f) <= 0``
    for a kept f.  ``G_g <= G_f`` forces ``tr(G_g) <= tr(G_f)``, with
    equality only for ``G_g = G_f``, so no kept member but the identity is
    dominated by another, and of equal Gram matrices the first is kept.
    """
    trace = np.trace(grams, axis1=1, axis2=2).real
    kept = [0]
    for g in 1 + np.argsort(-trace[1:], kind="stable"):
        if np.linalg.eigvalsh(grams[g] - grams[kept])[:, -1].min() > 0.0:
            kept.append(g)
    return np.sort(kept)


class AdaptedNorm(bounds.Norm):
    """Scaled-product maximum norm at a finite horizon.

    ``|||v||| = max_f ||F_f v||`` over the family ``F = {rho_hat^(-k) A_w :
    |w| = k <= N}``, which contains the identity (the empty word), so
    ``|||v||| >= ||v||``.  Operator norms are certified upper values of
    ``|||M|||``, from the kernel :meth:`_certified` with ``factor`` ``L =
    max_f ||F_f||_2``.  Members that a kept
    member Loewner-dominates are dropped (module docstring):
    ``full_family_size`` counts the whole family, ``family_size`` the
    members kept, which every evaluation uses.  The budget is charged for
    the whole family.

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

    def __init__(self, mset, rho_hat, depth, budget=None):
        _require_positive_finite(rho_hat, "rho_hat")
        if depth < 0:
            raise ValueError("depth must be non-negative")
        counter = bounds._counter(budget)
        m, d = len(mset), mset.d
        # costs[k]: the products of lengths 1..k, the family's cost at depth k
        costs = list(itertools.accumulate((m**k for k in range(1, depth + 1)), initial=0))
        feasible = bisect.bisect_right(costs, counter.remaining) - 1
        counter.check(costs[-1], "largest feasible depth is %d" % feasible)
        self.mset = mset
        self.rho_hat = float(rho_hat)
        self.depth = int(depth)
        self.label = "adapted(depth=%d, rho_hat=%.6g)" % (self.depth, self.rho_hat)

        # rho_hat = mant * 2**exp: the power-of-two part scales the set
        # exactly, so no power of rho_hat overflows at depth; 2**-exp is a
        # float64 number only for a normal rho_hat
        mant, exp = math.frexp(self.rho_hat)
        if exp < sys.float_info.min_exp:
            raise ValueError("rho_hat must be a normal float64 number, got %r" % self.rho_hat)
        blocks = [np.eye(d)[None]]
        with np.errstate(over="ignore", invalid="ignore"):
            for k, level in bounds._iter_levels(mset.scaled(2.0 ** -exp), depth, counter):
                blocks.append(level * mant ** (-k))
        family = np.concatenate(blocks)
        # not bounds._require_finite: this message names rho_hat, the
        # input that the caller has to change
        if not np.isfinite(family).all():
            raise ValueError(
                "rho_hat=%r scales the products of length <= %d beyond the float64 range"
                % (self.rho_hat, self.depth)
            )
        grams = np.swapaxes(family, 1, 2).conj() @ family
        kept = _undominated(grams)
        self.full_family_size = len(family)
        self._family = family = family[kept]
        self.family_size = f = len(family)
        # L = max_f ||F_f||_2: |||M||| <= L ||M||_F
        self.factor = float(bounds._euclidean_norms(family).max())
        # row g holds F_g^H F_g: weights @ rows is G_lambda
        self._grams = grams[kept].reshape(f, d * d)
        # the other members share WEIGHT_FLOOR; the identity's floor keeps
        # cond(G_lambda) <= 1 / WEIGHT_FLOOR, since ||G_lambda|| <= L**2
        self._floor = np.full(f, WEIGHT_FLOOR / f)
        self._floor[0] = WEIGHT_FLOOR * max(1.0, self.factor**2)
        self._single = np.nonzero(np.linalg.cond(family) <= SINGLE_MEMBER_COND)[0]
        self._inverses = np.linalg.inv(family[self._single])  # the identity first

    @property
    def d(self):
        return self.mset.d

    def vector_norms(self, V):
        """Norms of the columns of a d x r array."""
        V = linalg.as_columns(V)
        if V.shape[0] != self.d:
            raise linalg.DimensionError("vectors must live in C^%d" % self.d)
        return np.linalg.norm(np.matmul(self._family, V), axis=1).max(axis=0)

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
        once its value is within ``bounds.TIE_RTOL``, the norm protocol's
        ``-inf`` window, of ``floor[k]`` or of the lower value ``|||M u||| /
        |||u|||`` at a generalised eigenvector ``u``, and otherwise after
        ``DESCENT_STEPS`` steps.  Short of that, a pair whose value falls
        below ``cutoff[k]`` stops early: its value is then below the
        cutoff, and no lower than its full descent's.
        """
        p, f, d = len(Q), self.family_size, self.d
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
            live = live[best[live] > (1.0 + bounds.TIE_RTOL) * np.maximum(floor[live], lower[live])]
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

    def _certified(self, P, cutoff):
        """Certified upper values of ``|||M|||`` for the matrices ``M`` of
        ``P``: the batched kernel of the norm protocol.

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

        where ``L = max_f ||F_f||_2`` is the norm's ``factor``, up to
        roundoff, as values are not outward-rounded: about
        ``SINGLE_MEMBER_COND * 2**-53`` relative on single-member values,
        and on the others up to about ``2**-54 * cond(G_lambda)``, which
        ``WEIGHT_FLOOR`` caps at 6e-5.

        The pair ``(M, F_f)`` of largest ``||F_f M||_2`` (the first such f)
        is certified first.  Every other pair whose ``||F_f M||_2`` exceeds
        that value is then tried at the weights the first pair's descent
        ended at and, if it still exceeds that value by more than
        ``bounds.TIE_RTOL``, certified on its own.  A value depends on its
        own matrix only, not on the rest of ``P``.

        The first pair's descent also stops once its value falls below
        ``cutoff``.  A matrix that such a cut leaves below the cutoff reads
        ``-inf``: its full value is below ``(1 + bounds.TIE_RTOL)`` times
        the cutoff, the window in which the norm protocol lets a kernel
        read ``-inf``, since the values it was left with bound ``|||M|||``,
        and so the lower values at which the full descents may stop.  A
        matrix that a cut leaves at or above the cutoff is certified again
        with the cutoff ``-inf``, which cuts nothing.
        """
        f, d, n = self.family_size, self.d, len(P)
        if P.shape[1:] != (d, d):
            raise linalg.DimensionError("matrices must be %d x %d" % (d, d))
        # matrices per block: its F_f M products fit in LEVEL_BYTES, complex or not
        step = max(1, bounds.LEVEL_BYTES // (16 * f * d * d))
        if n > step:
            blocks = [P[i:i + step] for i in range(0, n, step)]
            return np.concatenate([self._certified(block, cutoff) for block in blocks])
        M, scale = bounds._scaled(P)
        c = cutoff / scale
        FM = np.matmul(self._family, M[:, None])
        # the values of the identity weights, ||F_f M||_2
        ident = bounds._euclidean_norms(FM.reshape(n * f, d, d)).reshape(n, f)
        top = np.argmax(ident, axis=1)
        values, weights, cut = self._descend(M, FM[np.arange(n), top], np.zeros(n), c)
        i, g = np.nonzero((ident > values[:, None]) & (np.arange(f) != top[:, None]))
        more, _ = self._pencil(FM[i, g], self._gram(weights)[i])
        hard = np.nonzero(more > values[i] * (1.0 + bounds.TIE_RTOL))[0]
        for start in range(0, len(hard), step):
            k = hard[start:start + step]
            low = self._descend(M[i[k]], FM[i[k], g[k]], values[i[k]], np.full(len(k), -np.inf))[0]
            more[k] = np.minimum(more[k], low)
        np.maximum.at(values, i, more)
        redo = cut & (values >= c)
        values = np.where(cut & (values < c), -np.inf, values * scale)
        if redo.any():
            values[redo] = self._certified(P[redo], -np.inf)
        return values

    matrix_norms = _certified

    def __repr__(self):
        return "AdaptedNorm(depth=%d, rho_hat=%g, |family|=%d)" % (
            self.depth,
            self.rho_hat,
            self.family_size,
        )


@dataclass(frozen=True)
class ExtremalityResidual:
    value: float


def extremality_residual(mset, norm, rho_hat):
    """Worst relative one-step expansion of the norm over the family.

    Returns ``max(0, (max_i |||A_i||| - rho_hat) / rho_hat)`` with the
    operator norms of one ``norm.matrix_norms`` call on the family: exact
    for :class:`EuclideanNorm`, and for :class:`AdaptedNorm` a certified
    upper value of the residual.  A true extremal norm for the
    rho_hat-normalised family gives 0.  ``rho_hat`` must be positive and
    finite.
    """
    _require_positive_finite(rho_hat, "rho_hat")
    worst = float(norm.matrix_norms(mset.stack(), -np.inf).max())
    return ExtremalityResidual(value=max(0.0, (worst - rho_hat) / rho_hat))


BOUNDED = "bounded"
GROWTH = "growth-detected"
INCONCLUSIVE = "inconclusive"


@dataclass
class ProductBoundedness:
    """The verdict of :func:`is_product_bounded` and the
    :class:`jsrkit.bounds.BoundsReport` it read: its rows hold the
    witness words, and ``report.truncated`` flags a budget cut."""

    verdict: str
    report: bounds.BoundsReport
    bound_guess: float


def is_product_bounded(mset, depth, bound_guess, budget=None):
    """Whether the products of the normalised family ``A / bound_guess``
    stay bounded, read from the depth-``depth`` sandwich enclosure
    ``[best_lower, best_upper]`` of the jsr (:func:`jsrkit.bounds.sandwich`).

    - ``GROWTH`` when ``best_lower > bound_guess * (1 + SCREEN_SLACK)``:
      some word w has ``rho(A_w)^(1/|w|)`` above the guess, so the
      normalised powers of ``A_w`` are unbounded;
    - ``BOUNDED`` when ``best_upper < bound_guess * (1 - SCREEN_SLACK)``:
      some level n has ``||A_w||_2 < bound_guess^n`` for every word of
      length n, so every normalised product is bounded by the largest
      normalised norm of the words shorter than n;
    - ``INCONCLUSIVE`` otherwise, as when the jsr equals the guess or a
      budget-truncated report decides neither.

    A truncated report that decides keeps its verdict.
    ``bounds.SCREEN_SLACK`` bounds the kernels' relative roundoff; the
    verdict is sound up to binary64 roundoff, as values are not rounded
    outward.
    """
    _require_positive_finite(bound_guess, "bound_guess")
    report = sandwich(mset, depth, budget=budget)
    if report.best_lower() > bound_guess * (1.0 + bounds.SCREEN_SLACK):
        verdict = GROWTH
    elif report.best_upper() < bound_guess * (1.0 - bounds.SCREEN_SLACK):
        verdict = BOUNDED
    else:
        verdict = INCONCLUSIVE
    return ProductBoundedness(verdict, report, bound_guess)


@dataclass
class YMembershipReport:
    """Finite-depth evidence about membership in the extremal set.

    ``margins[n-1]`` is ``1 - |||A(x, n)|||``.  The verdict is
    ``"consistent"`` unless some partial product's norm drops below
    ``1 - Y_MEMBERSHIP_TOL`` (rejection at the first such depth).  The
    values of :class:`EuclideanNorm` are the true norms and those of
    :class:`AdaptedNorm` certified upper values of them, so with either
    a rejection is sound up to roundoff.  Norms exceeding ``1 +
    Y_MEMBERSHIP_TOL`` do not reject; they indicate that the norm itself
    is not yet extremal, or that the upper value is not tight, and are
    listed separately as an indication only.
    """

    word: object
    depth: int
    values: list
    margins: list
    verdict: str
    rejected_at: int = None
    excess_at: list = field(default_factory=list)


def y_membership(mset, norm, pword, depth):
    """Track |||A(x, n)||| along a periodic word for n = 1..depth.

    The family must be normalised to jsr about 1: the depth-4
    :func:`jsrkit.bounds.sandwich` enclosure ``[best_lower, best_upper]``
    of its jsr, from a budget of its own, must meet ``[0.8, 1.2]``, and
    :class:`NormalizationError` is raised when ``best_lower > 1.2`` or
    ``best_upper < 0.8``, which prove the jsr outside that window.  The
    products ``A(x, n)`` come from one prefix sweep in the order of
    :meth:`MatrixSet.product`, and one ``norm.matrix_norms`` call gives
    their values; for :class:`AdaptedNorm` they are certified upper
    values, so a rejection is sound while the excess list stays an
    indication (:class:`YMembershipReport`).
    """
    pword.validate_for(mset)  # before the sandwich; the sweep below is not cocycle._sweep
    enclosure = sandwich(mset, 4, budget=BudgetCounter(10**6))
    lower, upper = enclosure.best_lower(), enclosure.best_upper()
    if lower > 1.2 or upper < 0.8:
        raise NormalizationError(
            "the jsr lies in [%.6g, %.6g], outside [0.8, 1.2]; scale the set first" % (lower, upper)
        )
    products = bounds._prefixes(mset, pword.prefix(depth))[1:]
    values = norm.matrix_norms(products, -np.inf).tolist()
    low = [n for n, v in enumerate(values, start=1) if v < 1.0 - Y_MEMBERSHIP_TOL]
    rejected_at = low[0] if low else None
    values = values[:rejected_at]
    verdict = "consistent" if rejected_at is None else "rejected-at-%d" % rejected_at
    return YMembershipReport(
        word=pword,
        depth=len(values),
        values=values,
        margins=[1.0 - v for v in values],
        verdict=verdict,
        rejected_at=rejected_at,
        excess_at=[n for n, v in enumerate(values, start=1) if v > 1.0 + Y_MEMBERSHIP_TOL],
    )


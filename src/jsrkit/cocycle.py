"""Invariant splittings and cone propagation along periodic symbol orbits.

Given a normalised matrix family and a periodic word x, the partial
products A(x, n) form a cocycle over the cyclic shift.  When all forward
products stay bounded the singular subspaces of long products converge
to a splitting C^d = V(x) + W(x): V carries the directions whose image
never collapses, W the uniformly exponentially contracted ones.  This
module estimates the fast dimension from singular-value growth
exponents, builds the finite-horizon splitting (push-forward of the
top singular subspace at horizon 2n, bottom singular subspace at
horizon n), measures how invariant the result is, and propagates cone
fields around the orbit to certify spectral-radius lower bounds.

Every product along the orbit is an entry of one prefix sweep
(:func:`jsrkit.bounds._prefixes`): left multiplications from the
identity, in the order of :meth:`MatrixSet.product`, so each carries the
bits of ``mset.product`` of its word.  A computation that needs the
products ``A(T^s x, n)`` for several n from one start s takes them from
one sweep, rather than forming each from the identity, and reads them as
one stack: the growth exponents from one batched SVD, the contraction
values ``||A(x, n)|W||_2`` from one batched 2-norm.  The Cauchy horizons
of :func:`splitting_residuals` are multiples of the period, so one
phase-0 sweep is also the back sweep from ``T^-n x`` of each of them:
their fast spaces are the push-forward step of :func:`finite_splitting`
read off that sweep, with no slow space, angle check or projection.

The cone check reads p and the slow space W0 off the phase-0 pair of
the cone field it is given and rebuilds no splitting: its xi and K1 are
fitted on W0 from one sweep to ``max(4 r, CONE_HORIZON)`` for period r,
over the products whose 2-norm on W0 exceeds ``bounds.FIT_FLOOR``, and
all of its test vectors pass through each lap's block product at once,
as the columns of one array.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds, linalg
from .bounds import EUCLIDEAN, _line_fit, _prefixes

__all__ = [
    "AmbiguousExponentsError",
    "cocycle_product",
    "detect_p",
    "SplittingResult",
    "finite_splitting",
    "SplittingDiagnostics",
    "splitting_residuals",
    "ConeParams",
    "cone_margin",
    "cone_contains",
    "ConePropagationReport",
    "cone_propagation_check",
    "LowerBoundCertificate",
    "certify_lower",
]

# |theta| below this counts as a zero growth exponent (per symbol)
THETA_ZERO_THRESHOLD = 0.02 * math.log(2.0)
# horizon of the splittings behind a cone field and its contraction check
CONE_HORIZON = 24
# a cone inequality may fail by this much before it is reported
CONE_TOL = 1e-9


class AmbiguousExponentsError(ValueError):
    """Some growth exponent sits too close to the zero/negative boundary."""


def _sweep(mset, x, start, n):
    """``A(T^start x, k)`` at index k = 0..n, from one prefix sweep."""
    return _prefixes(mset, [x.symbol(start + i) for i in range(n)])


def cocycle_product(mset, x, n, start=0):
    """The n-step product A(T^start x, n) along a periodic word."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _sweep(mset, x, start, n)[-1]


def _theta_slopes(mset, x, horizon):
    """Least-squares growth rates of cumulative log singular values.

    Sampled at n = r, 2r, ..., horizon (r the period), which keeps the
    intra-period oscillation out of the fit.
    """
    ns = list(range(x.period, horizon + 1, x.period))
    products = _sweep(mset, x, 0, ns[-1])[ns]
    if not np.isfinite(products).all():
        raise ValueError("matrix entries must be finite")
    with np.errstate(divide="ignore"):
        table = np.cumsum(np.log(np.linalg.svd(products, compute_uv=False)), axis=1)
    return [
        float(np.polyfit(ns, col, 1)[0]) if np.all(np.isfinite(col)) else -math.inf
        for col in table.T
    ]


def detect_p(mset, x, horizon):
    """Count the non-decaying singular directions along the orbit.

    Returns ``(p, theta_estimates)`` where ``theta_estimates[ell-1]`` is
    the fitted growth rate of the product of the top ``ell`` singular
    values per symbol.  Exponents inside ``[t, 2t)`` in magnitude, ``t =
    THETA_ZERO_THRESHOLD``, are refused as ambiguous rather than silently
    classified.
    """
    t = THETA_ZERO_THRESHOLD
    x.validate_for(mset)
    r = x.period
    if horizon < 4 * r:
        raise ValueError("horizon must be at least 4 periods (%d), got %d" % (4 * r, horizon))
    thetas = _theta_slopes(mset, x, horizon)
    # a -inf exponent (a zero singular value) is neither ambiguous nor zero
    ambiguous = [ell + 1 for ell, th in enumerate(thetas) if t <= abs(th) < 2 * t]
    if ambiguous:
        raise AmbiguousExponentsError(
            "growth exponents at levels %s are within 2x of the zero threshold" % ambiguous
        )
    zero = [abs(th) < t for th in thetas]
    p = zero.index(False) if False in zero else len(zero)
    if any(zero[p:]):
        raise AmbiguousExponentsError(
            "zero exponents reappear after a decaying level: %s" % (thetas,)
        )
    return p, thetas


@dataclass
class SplittingResult:
    """Finite-horizon splitting at one phase of a periodic orbit."""

    p: int
    n: int
    V: linalg.Subspace
    W: linalg.Subspace
    pair: linalg.ProjectionPair
    phase: int = 0


# direct sums with a smaller principal angle than this fail the construction
SPLITTING_ANGLE_TOL = 1e-8


def _fast_space(products, p, n):
    """V at horizon n from a sweep of at least 2n products from ``T^-n x``:
    the top-p right singular subspace of ``products[2 n]`` pushed forward
    by ``products[n]``, which must keep rank p."""
    top, _ = linalg.right_singular_subspaces(products[2 * n], p)
    V = linalg.Subspace.from_spanning(products[n] @ top.basis)
    if V.dim != p:
        raise linalg.DegenerateSplittingError(
            "push-forward collapsed the fast subspace (rank %d < %d)" % (V.dim, p)
        )
    return V


def finite_splitting(mset, x, p, n, phase=0):
    """Splitting at horizon n: push-forward of the slow singular data.

    V is the image under the n-step backward-started product of the
    top-p right singular subspace at horizon 2n; W is the bottom
    (d - p) right singular subspace of the forward n-step product.  The
    push-forward is the n-th product of the 2n-step sweep from ``T^-n x``.
    """
    x.validate_for(mset)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 < p <= mset.d:
        raise ValueError("p must lie in 1..%d" % mset.d)
    V = _fast_space(_sweep(mset, x, phase - n, 2 * n), p, n)  # the sweep from T^-n x
    _, W = linalg.right_singular_subspaces(cocycle_product(mset, x, n, start=phase), p)
    if linalg.smallest_principal_angle(V, W) < SPLITTING_ANGLE_TOL:
        raise linalg.DegenerateSplittingError(
            "splitting degenerate: principal angle below %.1e" % SPLITTING_ANGLE_TOL
        )
    return SplittingResult(p=p, n=n, V=V, W=W, pair=linalg.projection_from_pair(V, W), phase=phase)


@dataclass
class SplittingDiagnostics:
    invariance_residual: float
    delta_hat: float
    xi_hat: float
    contraction_r2: float
    cauchy_rate: float
    cauchy_r2: float
    commutation_residual: float
    horizon: int
    cauchy_table: list = field(default_factory=list)


def _loglinear_fit(ns, values):
    """``(rate, R^2)`` of a line through ``log(values)`` against ``ns``,
    over the values above ``bounds.FIT_FLOOR``; NaN for fewer than two."""
    pairs = [(n, v) for n, v in zip(ns, values) if v > bounds.FIT_FLOOR]
    if len(pairs) < 2:
        return math.nan, math.nan
    xs = np.array([p[0] for p in pairs], dtype=float)
    slope, _, r2 = _line_fit(xs, np.log([p[1] for p in pairs]))
    return float(math.exp(slope)), r2


def _contraction(products, ns, W):
    """The images ``A(x, n) W`` for n in ns, and their 2-norms
    ``||A(x, n)|W||_2`` (one batched matmul and one batched 2-norm)."""
    images = products[ns] @ W.basis
    return images, np.linalg.norm(images, 2, axis=(1, 2))


def splitting_residuals(mset, x, result, n_max):
    """Quantify how close a finite-horizon splitting is to invariant.

    Per-phase splittings are rebuilt at horizon ``n_max`` (the deeper the
    horizon, the smaller the residuals, which shrink like the contraction
    ratio to the n-th power).  Reported quantities:

    * invariance residual: worst Grassmannian distance between the
      pushed-forward fast space and the fast space at the next phase;
    * delta_hat: smallest expansion of unit fast vectors over n <= n_max;
    * xi_hat: fitted per-symbol contraction ratio on the slow space, with
      its log-linear fit quality;
    * Cauchy rate of the horizon-n fast spaces, fitted the same way;
    * commutation residual of the projections with the cocycle step.

    The r phase splittings at ``n_max`` (r the period) give the
    residuals, the fast space V0 and the slow space W0 of phase 0.
    delta_hat, the contraction values and the fast space of each Cauchy
    horizon n in ``r, 2r, ..., n_max`` read one phase-0 sweep of
    ``2 n`` products for the last n, at least ``n_max``: such an n is a
    multiple of r, so the sweep starts at ``T^-n x`` as well, and carries
    the bits of that horizon's own back sweep.  Each fast space is the
    push-forward of :func:`finite_splitting`, without the slow space it
    does not read; the other two quantities are one batched SVD and one
    batched 2-norm.  Fewer than two horizons (``n_max < 2 r``) leave the
    Cauchy table empty and its fit NaN.  Only the fast dimension
    ``result.p`` is read of ``result``.
    """
    return _splitting_residuals(mset, x, result.p, n_max)


def _splitting_residuals(mset, x, p, n_max):
    """:func:`splitting_residuals` at the fast dimension ``p``, with no
    splitting built to carry it."""
    x.validate_for(mset)
    r = x.period
    phases = [finite_splitting(mset, x, p, n_max, phase=k) for k in range(r)]

    invariance = commutation = 0.0
    for k in range(r):
        A = mset.matrices[x.symbol(k)]
        pushed = linalg.Subspace.from_spanning(A @ phases[k].V.basis)
        nxt = phases[(k + 1) % r]
        invariance = max(invariance, linalg.grassmann_distance(pushed, nxt.V))
        comm = A @ phases[k].pair.P - nxt.pair.P @ A
        commutation = max(commutation, float(np.linalg.norm(comm, 2)))

    ns = list(range(r, n_max + 1, r))
    # 2 ns[-1] products, the back sweep of the last horizon, and at least n_max
    products = _sweep(mset, x, 0, max(n_max, 2 * (n_max - n_max % r)))
    V0 = phases[0].V
    delta_hat = float(np.linalg.svd(products[1:n_max + 1] @ V0.basis, compute_uv=False)[:, -1].min())

    xi_hat, xi_r2 = _loglinear_fit(ns, _contraction(products, ns, phases[0].W)[1].tolist())

    # horizons n and n + r, both in ns, are compared: zip pairs ns[:-1] with the values
    fast = [_fast_space(products, p, n) for n in ns]
    cauchy_vals = [linalg.grassmann_distance(a, b) for a, b in zip(fast, fast[1:])]
    cauchy_rate, cauchy_r2 = _loglinear_fit(ns, cauchy_vals)

    return SplittingDiagnostics(
        invariance_residual=invariance,
        delta_hat=delta_hat,
        xi_hat=xi_hat,
        contraction_r2=xi_r2,
        cauchy_rate=cauchy_rate,
        cauchy_r2=cauchy_r2,
        commutation_residual=commutation,
        horizon=n_max,
        cauchy_table=list(zip(ns, cauchy_vals)),
    )


@dataclass
class ConeParams:
    """A cone field along an orbit: aperture, projections, and the norm."""

    theta: float
    projections: list  # ProjectionPair per phase
    norm: object = EUCLIDEAN

    def __post_init__(self):
        if not 0 < self.theta <= 1:
            raise ValueError("theta must lie in (0, 1]")

    def pair(self, position):
        return self.projections[position % len(self.projections)]


def cone_params_from_splitting(mset, x, theta, norm=None):
    """Build the per-phase projection family for a cone field, from the
    splittings at horizon ``CONE_HORIZON``."""
    p, _ = detect_p(mset, x, max(4 * x.period, CONE_HORIZON))
    pairs = [finite_splitting(mset, x, p, CONE_HORIZON, phase=k).pair for k in range(x.period)]
    return ConeParams(theta=theta, projections=pairs, norm=EUCLIDEAN if norm is None else norm)


def _margins(pair, theta, norm, V):
    """``theta * |||P v||| - |||Q v|||`` per column v of V, with the two norms."""
    p_norm = norm.vector_norms(pair.P @ V)
    q_norm = norm.vector_norms(pair.complement() @ V)
    return theta * p_norm - q_norm, p_norm, q_norm


def cone_margin(params, position, v):
    """theta * |||P v||| - |||Q v|||; non-negative means membership."""
    margins = _margins(params.pair(position), params.theta, params.norm, linalg.as_vector(v))[0]
    return float(margins[0])


def cone_contains(params, position, v):
    margin = cone_margin(params, position, v)
    return margin >= 0.0, margin


@dataclass
class ConePropagationReport:
    ok: bool
    laps: int
    block: int
    theta0: float
    xi_hat: float
    k1_hat: float
    aperture_trace: list  # certified apertures, inflated constants
    worst_membership_slack: float
    worst_norm_slack: float
    measured_aperture_ratio: float = math.nan  # worst observed per-block shrink
    failures: list = field(default_factory=list)


def _cone_test_vectors(pair, theta, norm):
    """Deterministic vectors inside the cone of aperture theta, as the
    columns of one d x k array."""
    vecs = []
    for pv in pair.V.basis.T:
        npv = norm.vector_norm(pv)
        vecs.append(pv / npv)
        for qv, tau, phase in itertools.product(pair.W.basis.T, (0.5, 1.0 - 1e-9), (1.0, -1.0, 1j)):
            t = tau * theta * npv / norm.vector_norm(qv)
            vecs.append((pv + t * phase * qv) / npv)
    return np.stack(vecs, axis=1)


def cone_propagation_check(mset, x, params, N, laps):
    """Push cone vectors through N-step blocks and check cone contraction.

    The contraction property: a vector in the cone of aperture theta is
    mapped, after N steps, into the cone of aperture K1 * xi^N * theta
    at the shifted phase, losing at most a (theta + K1 * xi^N * theta)
    fraction of its norm.  xi and K1 are fitted on the cone field's own
    phase-0 slow space W0 from one sweep to ``max(4 r, CONE_HORIZON)``
    for period r: xi from ``||A(x, n)|W0||_2`` over n = r, 2r, ..., K1
    from the same products in the cone norm, over the n whose 2-norm the
    xi fit keeps (above ``bounds.FIT_FLOOR``); both are inflated by 10%
    before the inequalities are asserted.  No splitting is rebuilt.  A
    failed xi fit (fewer than two values above ``bounds.FIT_FLOOR``) or a
    block that does not contract (K1 xi^N >= 1) is reported as a failure
    at lap 0.  All test vectors pass through each lap's block product at
    once; any violation beyond ``CONE_TOL`` is reported with the offending
    vector and lap rather than raised.  A block length N or a lap count
    below 1, or a field without a slow space (p = d), raises.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if laps < 1:
        raise ValueError("laps must be at least 1")
    x.validate_for(mset)
    W0 = params.pair(0).W
    if W0.dim == 0:
        raise ValueError("the cone field has no slow space (p = d): nothing contracts")
    r = x.period
    ns = list(range(r, max(4 * r, CONE_HORIZON) + 1, r))
    images, contraction = _contraction(_sweep(mset, x, 0, ns[-1]), ns, W0)
    contraction = contraction.tolist()
    xi_hat = _loglinear_fit(ns, contraction)[0]
    norm = params.norm
    complements = np.stack([pair.complement() for pair in params.projections])
    m_q = float(norm.matrix_norms(complements, -np.inf).max())
    # contraction prefactor in the chosen norm: sup over W0's basis per n
    sup_w = norm.vector_norms(np.hstack(images)).reshape(len(ns), -1) / norm.vector_norms(W0.basis)
    sup = zip(sup_w.max(axis=1).tolist(), ns, contraction)
    c_hat = max([0.0] + [s / xi_hat**n for s, n, c in sup if c > bounds.FIT_FLOOR])
    k1 = 1.1 * 2.0 * c_hat * m_q
    xi = xi_hat * 1.1

    theta = params.theta
    shrink = k1 * xi**N
    report = ConePropagationReport(
        ok=False,
        laps=laps,
        block=N,
        theta0=theta,
        xi_hat=xi,
        k1_hat=k1,
        aperture_trace=[theta],
        worst_membership_slack=math.inf,
        worst_norm_slack=math.inf,
    )
    if math.isnan(xi_hat):
        reason = "fewer than two of ||A(x, n)|W0||_2, n <= %d, exceed %g" % (ns[-1], bounds.FIT_FLOOR)
        report.failures.append(("fit", 0, reason))
        return report
    if shrink >= 1.0:
        report.failures.append(("aperture", 0, "K1 * xi^N = %.3g does not contract" % shrink))
        return report

    report.aperture_trace = [theta * shrink**j for j in range(laps + 1)]
    V = _cone_test_vectors(params.pair(0), theta, norm)
    _, p_norm, q_norm = _margins(params.pair(0), theta, norm, V)
    tau_prev, v_norm = q_norm / np.maximum(p_norm, 1e-300), norm.vector_norms(V)
    theta_j, ratio = theta, 0.0
    slacks = {"membership": [], "norm": []}  # per lap, one slack per vector
    for lap in range(laps):
        V = cocycle_product(mset, x, N, start=lap * N) @ V
        theta_next = shrink * theta_j
        margin, p_norm, q_norm = _margins(params.pair((lap + 1) * N), theta_next, norm, V)
        w_norm = norm.vector_norms(V)
        slacks["membership"].append(margin / np.maximum(w_norm, 1e-300))
        slacks["norm"].append(w_norm - (1.0 - theta_j - shrink * theta_j) * v_norm)
        tau = q_norm / np.maximum(p_norm, 1e-300)
        kept = tau_prev > 1e-14
        ratio = max(ratio, float(np.max(tau[kept] / tau_prev[kept], initial=0.0)))
        tau_prev, v_norm, theta_j = tau, w_norm, theta_next
    report.failures = [
        (kind, (i, lap), float(table[lap][i]))
        for i, lap in np.ndindex(V.shape[1], laps)
        for kind, table in slacks.items()
        if table[lap][i] < -CONE_TOL
    ]
    report.ok = not report.failures
    report.worst_membership_slack = float(np.min(slacks["membership"], initial=math.inf))
    report.worst_norm_slack = float(np.min(slacks["norm"], initial=math.inf))
    report.measured_aperture_ratio = ratio
    return report


@dataclass
class LowerBoundCertificate:
    """A spectral-radius lower bound witnessed by a single word.

    ``value`` equals ``rho(A_w)^(1/|w|)``, reproducible from the word
    alone.  The Gelfand trace ``||A_w^k||^(1/(k |w|))`` is recorded for
    k = 1..8 as a cross-check that the value is approached from above.
    """

    word: tuple
    value: float
    gelfand: list
    vacuous: bool = False


def certify_lower(mset, word):
    word = mset.check_word(word)
    if len(word) == 0:
        raise ValueError("word must be nonempty")
    P = mset.product(word)
    n = len(word)
    rho = linalg.spectral_radius(P)
    value = rho ** (1.0 / n)
    gelfand = []
    Q = np.eye(mset.d, dtype=complex)
    for k in range(1, 9):
        Q = Q @ P
        gelfand.append(float(np.linalg.norm(Q, 2)) ** (1.0 / (k * n)))
    return LowerBoundCertificate(word=word, value=value, gelfand=gelfand, vacuous=(rho == 0.0))

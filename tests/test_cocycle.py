import math

import numpy as np
import pytest

from jsrkit import bounds, cocycle
from jsrkit.bounds import MatrixSet
from jsrkit.cocycle import (
    AmbiguousExponentsError,
    ConeParams,
    certify_lower,
    cocycle_product,
    cone_contains,
    cone_params_from_splitting,
    cone_propagation_check,
    detect_p,
    finite_splitting,
    splitting_residuals,
)
from jsrkit.extremal import AdaptedNorm, EuclideanNorm
from jsrkit.gallery import antidiagonal_pair, rank_one_pair
from jsrkit.linalg import (
    DegenerateSplittingError,
    Subspace,
    grassmann_distance,
    projection_from_pair,
)
from jsrkit.shiftspace import PeriodicWord

SQRT2 = math.sqrt(2.0)
LOG2 = math.log(2.0)


@pytest.fixture
def diagonal_singleton():
    return MatrixSet([np.diag([1.0, 0.5])])


@pytest.fixture
def triangular_singleton():
    return MatrixSet([[[1.0, 1.0], [0.0, 0.5]]])


@pytest.fixture
def scaled_antidiagonal():
    return antidiagonal_pair().scaled(1 / SQRT2)


FIXED = PeriodicWord([0])
ALTERNATING = PeriodicWord([0, 1])

E1 = Subspace([[1], [0]])
E2 = Subspace([[0], [1]])
SLOW_TRIANGULAR = Subspace(np.array([[2.0], [-1.0]]) / math.sqrt(5))  # eigenvector at 1/2


class TestCocycleProduct:
    def test_periodic_composition(self, scaled_antidiagonal):
        # the sweep multiplies in the order of MatrixSet.product: same bits
        r = ALTERNATING.period
        for start in range(2 * r + 1):
            for n in range(0, 7):
                word = [ALTERNATING.symbol(start + i) for i in range(n)]
                direct = scaled_antidiagonal.product(word)
                got = cocycle_product(scaled_antidiagonal, ALTERNATING, n, start=start)
                assert np.array_equal(got, direct)

    def test_cocycle_identity(self, scaled_antidiagonal):
        # A(x, n+m) = A(T^n x, m) A(x, n)
        for n in range(0, 4):
            for m in range(0, 4):
                lhs = cocycle_product(scaled_antidiagonal, ALTERNATING, n + m)
                rhs = cocycle_product(
                    scaled_antidiagonal, ALTERNATING, m, start=n
                ) @ cocycle_product(scaled_antidiagonal, ALTERNATING, n)
                assert lhs == pytest.approx(rhs)


class TestDetectP:
    def test_diagonal_exponents(self, diagonal_singleton):
        p, thetas = detect_p(diagonal_singleton, FIXED, 32)
        assert p == 1
        assert thetas[0] == pytest.approx(0.0, abs=1e-10)
        assert thetas[1] == pytest.approx(-LOG2, abs=1e-10)

    def test_triangular_exponents(self, triangular_singleton):
        # eigenvalues 1 and 1/2; the volume decays at log(1/2) per step
        p, thetas = detect_p(triangular_singleton, FIXED, 32)
        assert p == 1
        assert thetas[1] == pytest.approx(-LOG2, abs=1e-2)

    def test_alternating_orbit(self, scaled_antidiagonal):
        p, thetas = detect_p(scaled_antidiagonal, ALTERNATING, 32)
        assert p == 1
        assert thetas[0] == pytest.approx(0.0, abs=1e-12)
        assert thetas[1] == pytest.approx(-LOG2, abs=1e-12)

    def test_near_threshold_is_refused(self):
        mset = MatrixSet([np.diag([1.0, math.exp(-0.02)])])
        with pytest.raises(AmbiguousExponentsError, match="2"):
            detect_p(mset, FIXED, 32)

    def test_short_horizon_rejected(self, diagonal_singleton):
        with pytest.raises(ValueError):
            detect_p(diagonal_singleton, FIXED, 3)


class TestFiniteSplitting:
    def test_diagonal_is_exact_at_any_horizon(self, diagonal_singleton):
        for n in (1, 4, 9):
            result = finite_splitting(diagonal_singleton, FIXED, 1, n)
            assert grassmann_distance(result.V, E1) < 1e-12
            assert grassmann_distance(result.W, E2) < 1e-12

    def test_triangular_converges_to_eigenvectors(self, triangular_singleton):
        result = finite_splitting(triangular_singleton, FIXED, 1, 12)
        assert grassmann_distance(result.V, E1) < 1e-3
        assert grassmann_distance(result.W, SLOW_TRIANGULAR) < 1e-3

    def test_alternating_orbit_lands_on_axes(self, scaled_antidiagonal):
        # the phase-0 cycle product is diag(1/4, 1): fast space e2, and
        # one step later the fast space moves to e1
        at_zero = finite_splitting(scaled_antidiagonal, ALTERNATING, 1, 12, phase=0)
        assert grassmann_distance(at_zero.V, E2) < 1e-3
        at_one = finite_splitting(scaled_antidiagonal, ALTERNATING, 1, 12, phase=1)
        assert grassmann_distance(at_one.V, E1) < 1e-3

    def test_nilpotent_collapse_raises(self):
        mset = MatrixSet([[[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(DegenerateSplittingError):
            finite_splitting(mset, FIXED, 1, 4)


def reference_residuals(mset, x, result, n_max):
    """:func:`splitting_residuals` with the fast space of every Cauchy
    horizon n taken from a full ``finite_splitting(mset, x, p, n)``."""
    r, p = x.period, result.p
    phases = [finite_splitting(mset, x, p, n_max, phase=k) for k in range(r)]
    invariance = commutation = 0.0
    for k in range(r):
        A = mset.matrices[x.symbol(k)]
        pushed = Subspace.from_spanning(A @ phases[k].V.basis)
        nxt = phases[(k + 1) % r]
        invariance = max(invariance, grassmann_distance(pushed, nxt.V))
        commutation = max(commutation, float(np.linalg.norm(A @ phases[k].pair.P - nxt.pair.P @ A, 2)))
    products = cocycle._sweep(mset, x, 0, n_max)
    delta_hat = float(np.linalg.svd(products[1:] @ phases[0].V.basis, compute_uv=False)[:, -1].min())
    ns = list(range(r, n_max + 1, r))
    xi_hat, xi_r2 = cocycle._loglinear_fit(ns, cocycle._contraction(products, ns, phases[0].W)[1].tolist())
    fast = [finite_splitting(mset, x, p, n).V for n in ns]
    values = [grassmann_distance(a, b) for a, b in zip(fast, fast[1:])]
    rate, r2 = cocycle._loglinear_fit(ns[:-1], values)
    return cocycle.SplittingDiagnostics(
        invariance, delta_hat, xi_hat, xi_r2, rate, r2, commutation, n_max, list(zip(ns[:-1], values))
    )


class TestSplittingResiduals:
    def test_diagonal_diagnostics(self, diagonal_singleton):
        result = finite_splitting(diagonal_singleton, FIXED, 1, 8)
        diag = splitting_residuals(diagonal_singleton, FIXED, result, 16)
        assert diag.invariance_residual < 1e-12
        assert diag.delta_hat == pytest.approx(1.0, abs=1e-12)
        assert diag.xi_hat == pytest.approx(0.5, rel=1e-9)
        assert diag.commutation_residual < 1e-12

    def test_triangular_diagnostics(self, triangular_singleton):
        result = finite_splitting(triangular_singleton, FIXED, 1, 12)
        diag = splitting_residuals(triangular_singleton, FIXED, result, 20)
        assert abs(diag.xi_hat - 0.5) <= 0.02
        assert diag.invariance_residual <= 1e-6
        assert diag.commutation_residual <= 1e-6
        assert diag.cauchy_r2 > 0.99
        # the finite-horizon residual scales like xi^n; reaching 1e-8
        # requires a deeper horizon than 20
        deeper = splitting_residuals(triangular_singleton, FIXED, result, 26)
        assert deeper.invariance_residual <= 1e-8

    def test_alternating_diagnostics(self, scaled_antidiagonal):
        result = finite_splitting(scaled_antidiagonal, ALTERNATING, 1, 12)
        diag = splitting_residuals(scaled_antidiagonal, ALTERNATING, result, 24)
        assert diag.delta_hat >= 0.5
        assert diag.xi_hat == pytest.approx(0.5, rel=1e-9)
        assert diag.invariance_residual < 1e-9
        assert diag.commutation_residual < 1e-9

    def test_each_horizon_is_split_once(self, scaled_antidiagonal, monkeypatch):
        # r phase splittings at n_max; the Cauchy horizons read their fast
        # spaces off one sweep and call finite_splitting for none of them
        calls = []
        split = cocycle.finite_splitting

        def counted(*args, **kwargs):
            calls.append(args[3])
            return split(*args, **kwargs)

        result = finite_splitting(scaled_antidiagonal, ALTERNATING, 1, 12)
        monkeypatch.setattr(cocycle, "finite_splitting", counted)
        diag = splitting_residuals(scaled_antidiagonal, ALTERNATING, result, 12)
        r, ns = ALTERNATING.period, list(range(2, 13, 2))
        assert calls == [12] * r
        assert [n for n, _ in diag.cauchy_table] == ns[:-1]

    @pytest.mark.parametrize(
        "case, n_max",
        [("diagonal", 16), ("diagonal", 17), ("triangular", 20), ("triangular", 26),
         ("alternating", 12), ("alternating", 13), ("alternating", 24),
         ("rank-one", 12), ("rank-one-alternating", 12), ("rank-one-alternating", 15)],
    )
    def test_identical_to_splitting_every_horizon(self, case, n_max, request):
        mset, x = {
            "diagonal": (request.getfixturevalue("diagonal_singleton"), FIXED),
            "triangular": (request.getfixturevalue("triangular_singleton"), FIXED),
            "alternating": (request.getfixturevalue("scaled_antidiagonal"), ALTERNATING),
            "rank-one": (rank_one_pair().scaled(0.5), FIXED),
            "rank-one-alternating": (rank_one_pair().scaled(0.5), ALTERNATING),
        }[case]
        result = finite_splitting(mset, x, 1, n_max)
        got = splitting_residuals(mset, x, result, n_max)
        # repr keeps every bit of a float and reads NaN alike
        assert repr(got) == repr(reference_residuals(mset, x, result, n_max))

    @pytest.mark.parametrize(
        "fixture, word, n_max",
        [("diagonal_singleton", FIXED, 1), ("scaled_antidiagonal", ALTERNATING, 2),
         ("scaled_antidiagonal", ALTERNATING, 3)],
    )
    def test_fewer_than_two_horizons_leave_the_cauchy_table_empty(self, fixture, word, n_max, request):
        mset = request.getfixturevalue(fixture)
        diag = splitting_residuals(mset, word, finite_splitting(mset, word, 1, n_max), n_max)
        assert diag.cauchy_table == []
        assert math.isnan(diag.cauchy_rate) and math.isnan(diag.cauchy_r2)

    def test_uniform_singular_value_floor_on_extremal_orbits(
        self, diagonal_singleton, scaled_antidiagonal
    ):
        # on orbits consistent with extremality the p-th singular value of
        # the n-step product stays bounded away from zero for all n <= 64
        for mset, word, p in (
            (diagonal_singleton, FIXED, 1),
            (scaled_antidiagonal, ALTERNATING, 1),
        ):
            floor = math.inf
            for n in range(1, 65):
                sv = np.linalg.svd(
                    cocycle_product(mset, word, n), compute_uv=False
                )
                floor = min(floor, float(sv[p - 1]))
            assert floor >= 0.99


class TestConeMembership:
    def setup_method(self):
        pair = projection_from_pair(E1, E2)
        self.params = ConeParams(theta=0.5, projections=[pair], norm=EuclideanNorm())

    def test_axis_vector_inside(self):
        member, margin = cone_contains(self.params, 0, [1.0, 0.0])
        assert member
        assert margin == pytest.approx(0.5)

    def test_orthogonal_vector_outside(self):
        member, margin = cone_contains(self.params, 0, [0.0, 1.0])
        assert not member
        assert margin == pytest.approx(-1.0)

    def test_boundary_interior_margin(self):
        member, margin = cone_contains(self.params, 0, [1.0, 0.4])
        assert member
        assert margin == pytest.approx(0.1)

    def test_nearby_cones_nest_with_tripled_aperture(self):
        # if the projections differ by at most theta < 1/5 then the
        # theta-cone of one sits inside the 3*theta-cone of the other
        rng = np.random.default_rng(41)
        base = projection_from_pair(E1, E2)
        for _ in range(20):
            angle = rng.uniform(0.01, 0.12)
            Vy = Subspace.from_spanning([[1.0], [math.tan(angle)]])
            Wy = Subspace.from_spanning([[math.tan(angle) / 2], [1.0]])
            other = projection_from_pair(Vy, Wy)
            diff = float(np.linalg.norm(base.P - other.P, 2))
            if diff >= 0.2:
                continue
            theta = max(diff, 0.02)
            inner = ConeParams(theta=theta, projections=[base])
            outer = ConeParams(theta=3 * theta, projections=[other])
            for _ in range(50):
                t = rng.uniform(0, theta) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                v = np.array([1.0, 0.0]) + t * np.array([0.0, 1.0])
                assert cone_contains(inner, 0, v)[0]
                assert cone_contains(outer, 0, v)[0]


def propagate_one_by_one(mset, word, params, N, laps, shrink):
    """The lap loop of the cone check, one vector and one ``vector_norm``
    at a time: the (kind, (vector, lap)) failures and both worst slacks."""
    norm, failures = params.norm, []
    slacks = {"membership": [], "norm": []}
    for i, v in enumerate(cocycle._cone_test_vectors(params.pair(0), params.theta, norm).T):
        theta_j = params.theta
        for lap in range(laps):
            w = cocycle_product(mset, word, N, start=lap * N) @ v
            theta_next, pair = shrink * theta_j, params.pair((lap + 1) * N)
            p_norm, q_norm = norm.vector_norm(pair.P @ w), norm.vector_norm(pair.complement() @ w)
            member = (theta_next * p_norm - q_norm) / max(norm.vector_norm(w), 1e-300)
            kept = norm.vector_norm(w) - (1.0 - theta_j - theta_next) * norm.vector_norm(v)
            for kind, slack in (("membership", member), ("norm", kept)):
                slacks[kind].append(slack)
                if slack < -cocycle.CONE_TOL:
                    failures.append((kind, (i, lap)))
            v, theta_j = w, theta_next
    return failures, min(slacks["membership"]), min(slacks["norm"])


class TestConePropagation:
    def test_diagonal_block_shrink(self, diagonal_singleton):
        params = cone_params_from_splitting(diagonal_singleton, FIXED, theta=0.5)
        report = cone_propagation_check(diagonal_singleton, FIXED, params, N=4, laps=3)
        assert report.ok
        assert report.worst_membership_slack >= 0.0
        assert report.worst_norm_slack >= 0.0
        # the measured aperture shrinks by xi^N = 1/16 per block; the
        # certified trace carries the inflated fitted constants on top
        assert report.measured_aperture_ratio == pytest.approx(0.5**4, rel=1e-6)
        ratios = [b / a for a, b in zip(report.aperture_trace, report.aperture_trace[1:])]
        assert all(r < 0.25 for r in ratios)

    def test_triangular_blocks(self, triangular_singleton):
        params = cone_params_from_splitting(triangular_singleton, FIXED, theta=0.25)
        report = cone_propagation_check(triangular_singleton, FIXED, params, N=6, laps=3)
        assert report.ok
        assert not report.failures

    def test_alternating_orbit_with_adapted_norm(self, scaled_antidiagonal):
        norm = AdaptedNorm(scaled_antidiagonal, rho_hat=1.0, depth=6)
        params = cone_params_from_splitting(
            scaled_antidiagonal, ALTERNATING, theta=0.25, norm=norm
        )
        report = cone_propagation_check(
            scaled_antidiagonal, ALTERNATING, params, N=6, laps=3
        )
        assert report.ok
        assert not report.failures

    @pytest.mark.parametrize("adapted", [False, True])
    def test_complement_norms_take_one_call(self, scaled_antidiagonal, adapted):
        norm = AdaptedNorm(scaled_antidiagonal, rho_hat=1.0, depth=6) if adapted else EuclideanNorm()
        params = cone_params_from_splitting(scaled_antidiagonal, ALTERNATING, theta=0.25, norm=norm)
        calls, kernel = [], norm.matrix_norms
        norm.matrix_norms = lambda Q, cutoff: calls.append((len(Q), cutoff)) or kernel(Q, cutoff)
        cone_propagation_check(scaled_antidiagonal, ALTERNATING, params, N=6, laps=3)
        # one stack of the two phases' complementary projections
        assert calls == [(2, -np.inf)]

    def test_rebuilds_no_splitting(
        self, diagonal_singleton, triangular_singleton, scaled_antidiagonal, monkeypatch
    ):
        # the criterion-8 cases: the check reads p and W0 off the field it is given
        norm = AdaptedNorm(scaled_antidiagonal, rho_hat=1.0, depth=6)
        cases = [
            (diagonal_singleton, FIXED, 0.5, 4, None),
            (triangular_singleton, FIXED, 0.25, 6, None),
            (scaled_antidiagonal, ALTERNATING, 0.25, 6, norm),
        ]
        fields = [
            (mset, word, cone_params_from_splitting(mset, word, theta=theta, norm=cone_norm), N)
            for mset, word, theta, N, cone_norm in cases
        ]
        check = lambda: [cone_propagation_check(m, w, params, N, 3) for m, w, params, N in fields]
        before = check()

        def rebuilt(*args, **kwargs):
            raise AssertionError("the cone check rebuilt a splitting")

        for name in ("detect_p", "finite_splitting", "splitting_residuals"):
            monkeypatch.setattr(cocycle, name, rebuilt)
        assert check() == before

    def test_matches_one_vector_at_a_time(self, diagonal_singleton):
        # a field tilted off the invariant splitting fails both inequalities,
        # and seeded families (every fourth complex) fail some or none; the
        # column norms sum in another order, so slacks agree to roundoff
        tilted = projection_from_pair(Subspace.from_spanning([[1.0], [-0.5]]), E2)
        fields = [(diagonal_singleton, FIXED, ConeParams(theta=0.1, projections=[tilted]))]
        for seed in range(24):
            rng = np.random.default_rng(seed)
            d, word = 2 + seed % 2, PeriodicWord([0, 1] if seed % 3 else [0])
            A = rng.standard_normal((2, d, d))
            if seed % 4 == 3:
                A = A + 1j * rng.standard_normal((2, d, d))
            radius = np.max(np.abs(np.linalg.eigvals(MatrixSet(A).product(word.cycle))))
            mset = MatrixSet(A / radius ** (1 / word.period))
            try:
                fields.append((mset, word, cone_params_from_splitting(mset, word, theta=0.25)))
            except (AmbiguousExponentsError, DegenerateSplittingError):
                continue
        kinds = set()
        for mset, word, params in fields:
            if params.pair(0).W.dim == 0:
                continue
            for N in (2, 4, 6):
                report = cone_propagation_check(mset, word, params, N, 3)
                if report.aperture_trace == [params.theta]:  # K1 * xi^N >= 1
                    continue
                shrink = report.k1_hat * report.xi_hat**N
                failures, membership, norm = propagate_one_by_one(mset, word, params, N, 3, shrink)
                assert [f[:2] for f in report.failures] == failures
                assert report.worst_membership_slack == pytest.approx(membership, abs=1e-12)
                assert report.worst_norm_slack == pytest.approx(norm, abs=1e-12)
                kinds.update(kind for kind, _ in failures)
        assert kinds == {"membership", "norm"}

    def test_slow_space_below_the_fit_floor_fails_the_fit(self):
        # ||A^n|W0||_2 = 1e-8^n: only n = 1 exceeds FIT_FLOOR, so xi has no fit
        # and no aperture is certified (the check once read ok with NaN apertures)
        mset = MatrixSet([np.diag([1.0, 1e-8])])
        params = cone_params_from_splitting(mset, FIXED, theta=0.5)
        report = cone_propagation_check(mset, FIXED, params, N=2, laps=3)
        assert not report.ok
        assert [f[:2] for f in report.failures] == [("fit", 0)]
        assert report.aperture_trace == [0.5]

    def test_period_above_the_cone_horizon_is_sampled(self):
        # n runs over r, 2r, ..., 4r when 4r exceeds CONE_HORIZON; a period
        # of 25 once left no sample and raised IndexError
        long_word = PeriodicWord([0] * 25)
        slow = MatrixSet([np.diag([1.0, 0.9])])
        params = cone_params_from_splitting(slow, long_word, theta=0.5)
        report = cone_propagation_check(slow, long_word, params, N=100, laps=2)
        assert report.ok
        assert report.xi_hat == pytest.approx(0.99, rel=1e-12)
        fast = MatrixSet([np.diag([1.0, 0.5])])  # 0.5^50 is below FIT_FLOOR
        params = cone_params_from_splitting(fast, long_word, theta=0.5)
        report = cone_propagation_check(fast, long_word, params, N=2, laps=3)
        assert [f[:2] for f in report.failures] == [("fit", 0)]

    def test_k1_reads_only_the_fitted_products(self):
        # the slow space of this triangular matrix contracts by 1e-3 per step,
        # and from n = 5 on ||A^n|W0||_2 is roundoff below FIT_FLOOR
        mset = MatrixSet([[[1.0, 1.0], [0.0, 1e-3]]])
        params = cone_params_from_splitting(mset, FIXED, theta=0.25)
        report = cone_propagation_check(mset, FIXED, params, N=2, laps=3)
        W0 = params.pair(0).W.basis
        table = [
            (n, float(np.linalg.norm(cocycle_product(mset, FIXED, n) @ W0, 2)))
            for n in range(1, cocycle.CONE_HORIZON + 1)
        ]
        xi = report.xi_hat / 1.1
        m_q = float(np.linalg.norm(params.pair(0).complement(), 2))
        ratios = [(v / xi**n, v > bounds.FIT_FLOOR) for n, v in table]
        assert report.ok
        assert report.k1_hat == pytest.approx(
            2.2 * m_q * max(r for r, kept in ratios if kept), rel=1e-9
        )
        assert max(r for r, _ in ratios) > 1.01 * max(r for r, kept in ratios if kept)
        assert type(report.k1_hat) is float
        assert all(type(a) is float for a in report.aperture_trace)

    @pytest.mark.parametrize(
        "N, laps, name",
        [(6, 0, "laps"), (6, -2, "laps"), (0, 3, "N"), (-1, 3, "N")],
        ids=["laps-0", "laps-negative", "block-0", "block-negative"],
    )
    def test_block_and_lap_counts_below_one_are_refused(self, triangular_singleton, N, laps, name):
        # laps=0 once read ok without pushing anything, laps=-2 failed inside
        # numpy, and N < 1 reported an aperture failure of a block that does not exist
        params = cone_params_from_splitting(triangular_singleton, FIXED, theta=0.25)
        with pytest.raises(ValueError, match="^%s must be at least 1$" % name):
            cone_propagation_check(triangular_singleton, FIXED, params, N=N, laps=laps)

    def test_field_without_slow_space_is_refused(self):
        rotation = MatrixSet([[[0.6, -0.8], [0.8, 0.6]]])
        params = cone_params_from_splitting(rotation, FIXED, theta=0.25)
        assert params.pair(0).W.dim == 0
        with pytest.raises(ValueError, match="no slow space"):
            cone_propagation_check(rotation, FIXED, params, N=4, laps=3)


class TestCertifyLower:
    def test_rank_one_pair_ones_matrix(self):
        cert = certify_lower(rank_one_pair(), (1,))
        assert cert.value == pytest.approx(2.0, rel=1e-12)
        assert not cert.vacuous

    def test_antidiagonal_alternating_word(self):
        cert = certify_lower(antidiagonal_pair(), (1, 0))
        assert cert.value == pytest.approx(SQRT2, rel=1e-12)

    def test_nilpotent_word_is_vacuous(self):
        cert = certify_lower(MatrixSet([[[0, 1], [0, 0]]]), (0,))
        assert cert.value == 0.0
        assert cert.vacuous

    def test_gelfand_trace_tightens(self):
        cert = certify_lower(rank_one_pair(), (1,))
        gaps = [abs(g - cert.value) for g in cert.gelfand]
        assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))

    def test_invariant_under_cyclic_rotation(self):
        E1set = antidiagonal_pair()
        words = [(0, 1, 1), (1, 1, 0), (1, 0, 1)]
        values = [certify_lower(E1set, w).value for w in words]
        assert max(values) - min(values) < 1e-10

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            certify_lower(rank_one_pair(), ())

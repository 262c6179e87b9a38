import numpy as np
import pytest
from scipy import optimize

from jsrkit import linalg
from jsrkit.linalg import (
    DegenerateSplittingError,
    DimensionError,
    Subspace,
    grassmann_distance,
    max_unit_distance,
    operator_norm,
    projection_from_pair,
    right_singular_subspaces,
    singular_values,
    spectral_radius,
)

SQRT2 = np.sqrt(2.0)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_subspace(rng, d, p):
    q, _ = np.linalg.qr(random_complex(rng, (d, p)))
    return Subspace(q[:, :p])


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_antidiagonal_by_characteristic_polynomial(self):
        # char poly of [[0,2],[1/2,0]] is x^2 - 1, so the radius is 1
        assert spectral_radius([[0, 2], [0.5, 0]]) == pytest.approx(1.0, abs=1e-12)

    def test_ones_matrix(self):
        assert spectral_radius([[1, 1], [1, 1]]) == pytest.approx(2.0, abs=1e-12)

    def test_against_quadratic_formula_oracle(self):
        # 2x2 case: roots of x^2 - tr x + det, computed independently
        rng = np.random.default_rng(7)
        for _ in range(200):
            M = random_complex(rng, (2, 2))
            tr, det = np.trace(M), np.linalg.det(M)
            disc = np.sqrt(tr * tr - 4 * det + 0j)
            oracle = max(abs((tr + disc) / 2), abs((tr - disc) / 2))
            assert spectral_radius(M) == pytest.approx(oracle, rel=1e-10, abs=1e-10)

    def test_power_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            M = random_complex(rng, (3, 3))
            r = spectral_radius(M)
            P = np.eye(3, dtype=complex)
            for k in range(1, 6):
                P = P @ M
                assert spectral_radius(P) == pytest.approx(r**k, rel=1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            spectral_radius(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            spectral_radius([[np.nan, 0], [0, 1]])


class TestSingularValues:
    def test_identity(self):
        assert singular_values(np.eye(2)) == pytest.approx([1.0, 1.0])

    def test_rank_one(self):
        # [[2,2],[0,0]] has one singular value 2*sqrt(2)
        sv = singular_values([[2, 2], [0, 0]])
        assert sv[0] == pytest.approx(2 * SQRT2, rel=1e-12)
        assert sv[1] == pytest.approx(0.0, abs=1e-12)

    def test_diagonal(self):
        assert singular_values(np.diag([3.0, 0.5])) == pytest.approx([3.0, 0.5])

    def test_against_gram_eigenvalues(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = rng.integers(2, 5)
            M = random_complex(rng, (d, d))
            gram = np.sort(np.linalg.eigvalsh(M.conj().T @ M))[::-1]
            oracle = np.sqrt(np.clip(gram, 0, None))
            assert singular_values(M) == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_product_inequality(self):
        # prod of top-l singular values is submultiplicative, every l
        rng = np.random.default_rng(10)
        for _ in range(100):
            d = rng.integers(2, 5)
            A, B = random_complex(rng, (d, d)), random_complex(rng, (d, d))
            sa, sb, sab = singular_values(A), singular_values(B), singular_values(A @ B)
            for ell in range(1, d + 1):
                lhs = np.prod(sab[:ell])
                rhs = np.prod(sa[:ell]) * np.prod(sb[:ell])
                assert lhs <= rhs * (1 + 1e-9) + 1e-300

    def test_subspace_split(self):
        M = np.diag([3.0, 2.0, 0.5])
        top, bottom = right_singular_subspaces(M, 2)
        assert grassmann_distance(top, Subspace(np.eye(3)[:, :2])) < 1e-12
        assert grassmann_distance(bottom, Subspace(np.eye(3)[:, 2:])) < 1e-12


class TestOperatorNorm:
    def test_rank_one(self):
        assert operator_norm([[2, 2], [0, 0]]) == pytest.approx(2 * SQRT2, rel=1e-12)

    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0)

    def test_antidiagonal(self):
        # M^H M = diag(1/4, 4) so the norm is 2
        assert operator_norm([[0, 2], [0.5, 0]]) == pytest.approx(2.0, rel=1e-12)

    def test_dominates_spectral_radius(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            M = random_complex(rng, (3, 3))
            assert spectral_radius(M) <= operator_norm(M) * (1 + 1e-12)


class TestGrassmann:
    def test_coincident_lines(self):
        U = Subspace([[1], [0]])
        assert grassmann_distance(U, U) == 0.0

    def test_orthogonal_lines(self):
        U = Subspace([[1], [0]])
        V = Subspace([[0], [1]])
        assert grassmann_distance(U, V) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_line(self):
        U = Subspace([[1], [0]])
        V = Subspace(np.array([[1], [1]]) / SQRT2)
        assert grassmann_distance(U, V) == pytest.approx(SQRT2 / 2, rel=1e-12)

    def test_metric_axioms(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            p = int(rng.integers(1, d))
            U, V, W = (random_subspace(rng, d, p) for _ in range(3))
            duv = grassmann_distance(U, V)
            assert duv == grassmann_distance(V, U)
            assert 0.0 <= duv <= 1.0 + 1e-12
            assert duv <= grassmann_distance(U, W) + grassmann_distance(W, V) + 1e-10

    def test_max_unit_distance_matches_metric(self):
        # equal dimensions: ||P_U - P_V|| equals the farthest unit vector
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            p = int(rng.integers(1, d))
            U, V = random_subspace(rng, d, p), random_subspace(rng, d, p)
            assert grassmann_distance(U, V) == pytest.approx(
                max_unit_distance(U, V), abs=1e-8
            )

    def test_max_unit_distance_sampling_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            p = int(rng.integers(1, d))
            U, V = random_subspace(rng, d, p), random_subspace(rng, d, p)
            oracle = sampled_max_distance(rng, U, V)
            assert max_unit_distance(U, V) == pytest.approx(oracle, abs=1e-8)


def sampled_max_distance(rng, U, V, samples=256):
    """Independent oracle: dense sampling of unit vectors of U, then a
    local maximisation over the coefficient sphere."""
    P = np.eye(U.ambient_dim) - V.projector()

    def dist_of(coins):
        u = U.basis @ coins
        return np.linalg.norm(P @ u) / np.linalg.norm(u)

    coeffs = rng.standard_normal((U.dim, samples)) + 1j * rng.standard_normal((U.dim, samples))
    values = [dist_of(coeffs[:, j]) for j in range(samples)]
    best = coeffs[:, int(np.argmax(values))]

    def objective(x):
        c = x[: U.dim] + 1j * x[U.dim :]
        if np.linalg.norm(c) < 1e-12:
            return 0.0
        return -dist_of(c)

    x0 = np.concatenate([best.real, best.imag])
    res = optimize.minimize(objective, x0, method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
    return max(-res.fun, max(values))


class TestProjectionFromPair:
    def test_orthogonal_axes(self):
        pair = projection_from_pair(Subspace([[1], [0]]), Subspace([[0], [1]]))
        assert pair.P == pytest.approx(np.diag([1.0, 0.0]))

    def test_oblique(self):
        W = Subspace(np.array([[2], [-1]]) / np.sqrt(5))
        pair = projection_from_pair(Subspace([[1], [0]]), W)
        assert pair.P == pytest.approx(np.array([[1.0, 2.0], [0.0, 0.0]]), abs=1e-12)

    def test_diagonal_pair(self):
        V = Subspace(np.array([[1], [1]]) / SQRT2)
        W = Subspace(np.array([[1], [-1]]) / SQRT2)
        pair = projection_from_pair(V, W)
        assert pair.P == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)

    def test_degenerate_pair_raises(self):
        V = Subspace([[1], [0]])
        with pytest.raises(DegenerateSplittingError):
            projection_from_pair(V, V)

    def test_roundtrip_recovers_subspaces(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            p = int(rng.integers(1, d))
            V = random_subspace(rng, d, p)
            W = random_subspace(rng, d, d - p)
            if singular_values(np.hstack([V.basis, W.basis]))[-1] < SQRT2 * np.sin(5e-4):
                continue
            pair = projection_from_pair(V, W)
            image = Subspace.from_spanning(pair.P @ V.basis)
            kernel = Subspace.from_spanning((np.eye(d) - pair.P) @ W.basis)
            assert grassmann_distance(image, V) < 1e-8
            assert grassmann_distance(kernel, W) < 1e-8

    def test_plane_and_line_at_a_tiny_angle_are_not_a_direct_sum(self):
        # a rotated plane and line of C^3 meeting at 1e-9 radians: the
        # solved P used to fail ProjectionPair's idempotence check
        Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
        line = np.cos(1e-9) * Q[:, :1] + np.sin(1e-9) * Q[:, 2:]
        with pytest.raises(DegenerateSplittingError, match="not a direct sum"):
            projection_from_pair(Subspace(Q[:, :2]), Subspace(line))

    def test_refuses_exactly_below_the_direct_sum_tolerance(self):
        # pairs whose smallest principal angle theta is log-uniform in
        # [1e-11, 1e-5], real and complex, in C^2..C^12: the other
        # principal angles are drawn from [0.1, pi / 2]
        rng = np.random.default_rng(29)
        refused = 0
        for _ in range(2000):
            d = int(rng.integers(2, 13))
            p = int(rng.integers(1, d))
            k = min(p, d - p)
            draw = random_complex if rng.integers(2) else lambda rng, shape: rng.standard_normal(shape)
            Q, _ = np.linalg.qr(draw(rng, (d, d)))
            angles = np.concatenate([[10 ** rng.uniform(-11, -5)], rng.uniform(0.1, np.pi / 2, k - 1)])
            W = np.hstack([np.cos(angles) * Q[:, :k] + np.sin(angles) * Q[:, p:p + k], Q[:, p + k:]])
            V, W = Subspace(Q[:, :p]), Subspace(W)
            sigma = singular_values(np.hstack([V.basis, W.basis]))[-1]
            if sigma <= linalg.DIRECT_SUM_TOL:
                refused += 1
                with pytest.raises(DegenerateSplittingError):
                    projection_from_pair(V, W)
            else:
                assert isinstance(projection_from_pair(V, W), linalg.ProjectionPair)
        assert 0 < refused < 2000

    def test_callers_projection_stays_writeable_and_apart(self):
        P = np.diag([1.0, 0.0]).astype(complex)
        pair = linalg.ProjectionPair(Subspace(np.eye(2)[:, :1]), Subspace(np.eye(2)[:, 1:]), P)
        assert P.flags.writeable and not pair.P.flags.writeable
        P[0, 0] = 7.0
        assert pair.P[0, 0] == 1.0

    def test_idempotent_invariant(self):
        pair = projection_from_pair(Subspace([[1], [0]]), Subspace([[0], [1]]))
        assert np.linalg.norm(pair.P @ pair.P - pair.P, 2) < 1e-8


class TestCoercions:
    @pytest.mark.parametrize("coerce", [linalg.as_matrix, linalg.as_columns])
    def test_dtype_follows_the_imaginary_parts(self, coerce):
        # float64 unless an entry has a nonzero imaginary part; -0.0 is zero
        real = coerce(np.array([[1.0, complex(2.0, -0.0)], [3.0, 4.0]]))
        assert real.dtype == np.float64 and not real.flags.writeable
        assert real.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert coerce([[1.0, 1e-300j], [0.0, 1.0]]).dtype == np.complex128


class TestSubspace:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0], [1.0]]))

    def test_from_spanning_orthonormalises(self):
        S = Subspace.from_spanning(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert S.dim == 1

    @pytest.mark.parametrize("build", [Subspace, Subspace.from_spanning])
    def test_three_dimensional_basis_raises(self, build):
        with pytest.raises(linalg.DimensionError):
            build(np.zeros((2, 2, 1)))

    @pytest.mark.parametrize("build", [Subspace, Subspace.from_spanning])
    def test_callers_array_stays_writeable_and_apart(self, build):
        b = np.eye(2, dtype=complex)
        S = build(b)
        assert b.flags.writeable and not S.basis.flags.writeable
        b[:] = 0.0
        assert np.array_equal(np.abs(S.basis), np.eye(2))

    def test_zero_dimensional(self):
        S = Subspace(np.zeros((3, 0)))
        assert S.dim == 0
        assert grassmann_distance(S, S) == 0.0

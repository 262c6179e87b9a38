import itertools
import math

import numpy as np
import pytest

from jsrkit import bounds
from jsrkit.bounds import BudgetCounter, BudgetExceededError, MatrixSet, sandwich
from jsrkit.extremal import (
    BOUNDED,
    GROWTH,
    REFINE_TOP,
    AdaptedNorm,
    EuclideanNorm,
    NormalizationError,
    extremality_residual,
    is_product_bounded,
    y_membership,
)
from jsrkit.gallery import antidiagonal_pair, rank_one_pair
from jsrkit.linalg import operator_norm
from jsrkit.shiftspace import PeriodicWord

SQRT2 = math.sqrt(2.0)
EPS = np.finfo(float).eps


def seeded_family(seed, d, m, complex_entries):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((m, d, d))
    if complex_entries:
        mats = mats + 1j * rng.standard_normal((m, d, d))
    return MatrixSet(list(mats))


@pytest.fixture
def half_rank_one():
    return rank_one_pair().scaled(0.5)


@pytest.fixture
def scaled_antidiagonal():
    return antidiagonal_pair().scaled(1 / SQRT2)


class TestAdaptedNormEvaluation:
    def test_depth_zero_is_euclidean(self):
        norm = AdaptedNorm(rank_one_pair(), rho_hat=1.0, depth=0)
        assert norm.vector_norm([1, 0]) == pytest.approx(1.0)
        assert norm.vector_norm([3, 4]) == pytest.approx(5.0)

    def test_basis_vector_unmoved(self, half_rank_one):
        # images of e1 under the two scaled generators have norms 1 and
        # sqrt(2)/2, neither of which beats the depth-0 term
        norm = AdaptedNorm(half_rank_one, rho_hat=1.0, depth=1)
        assert norm.vector_norm([1, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_vector_expands(self, half_rank_one):
        # (1/2)[[2,2],[0,0]] maps (1,1)/sqrt(2) to (sqrt(2), 0)
        norm = AdaptedNorm(half_rank_one, rho_hat=1.0, depth=1)
        v = np.array([1.0, 1.0]) / SQRT2
        assert norm.vector_norm(v) == pytest.approx(SQRT2, rel=1e-12)

    def test_homogeneity_exact(self, scaled_antidiagonal):
        norm = AdaptedNorm(scaled_antidiagonal, rho_hat=1.0, depth=4)
        rng = np.random.default_rng(21)
        for _ in range(50):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            c = complex(*rng.standard_normal(2))
            assert norm.vector_norm(c * v) == pytest.approx(
                abs(c) * norm.vector_norm(v), rel=1e-12
            )

    def test_triangle_inequality(self, scaled_antidiagonal):
        norm = AdaptedNorm(scaled_antidiagonal, rho_hat=1.0, depth=4)
        rng = np.random.default_rng(22)
        for _ in range(100):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert norm.vector_norm(v + w) <= (
                norm.vector_norm(v) + norm.vector_norm(w) + 1e-10
            )

    def test_telescoping(self, scaled_antidiagonal):
        # applying one generator can raise the depth-(N-1) norm by at
        # most rho_hat times the depth-N norm
        rng = np.random.default_rng(23)
        shallow = AdaptedNorm(scaled_antidiagonal, rho_hat=1.0, depth=3)
        deep = AdaptedNorm(scaled_antidiagonal, rho_hat=1.0, depth=4)
        for _ in range(50):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            for A in scaled_antidiagonal.matrices:
                assert shallow.vector_norm(A @ v) <= deep.vector_norm(v) * (1 + 1e-12)

    def test_monotone_in_depth_and_bounded(self, scaled_antidiagonal):
        rng = np.random.default_rng(24)
        # the scaled family is product bounded with constant sqrt(2)
        for _ in range(20):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            values = [
                AdaptedNorm(scaled_antidiagonal, 1.0, N).vector_norm(v)
                for N in range(0, 5)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
            assert values[-1] <= SQRT2 * np.linalg.norm(v) * (1 + 1e-12)

    def test_budget_error_names_feasible_depth(self):
        with pytest.raises(BudgetExceededError):
            AdaptedNorm(rank_one_pair(), rho_hat=1.0, depth=30, budget=100)

    @pytest.mark.parametrize(
        "mset,depth", [(rank_one_pair(), 6), (seeded_family(3, 3, 2, True), 4)]
    )
    def test_family_charges_every_product_to_the_counter(self, mset, depth):
        m = len(mset)
        counter = BudgetCounter()
        counter.charge(7)  # earlier work of the same run
        AdaptedNorm(mset, rho_hat=1.0, depth=depth, budget=counter)
        assert counter.used == 7 + sum(m**k for k in range(1, depth + 1))


class UnscreenedAdaptedNorm(AdaptedNorm):
    """The reference for the screened batch: the cheap candidate pass on
    every word of the batch, in one complex array, then the refine loop."""

    def matrix_norms_batch(self, P):
        P = np.asarray(P, dtype=complex)
        mesh, flat = self._mesh, self._flat
        f, d, r = self._family_size, self.d, mesh.shape[1]
        den_mesh = self.vector_norms(mesh)

        def columnwise(V):
            Y = flat @ V
            sq = (Y.real**2 + Y.imag**2).reshape(f, d, -1).sum(axis=1)
            return np.sqrt(sq.max(axis=0))

        def cheap(chunk):
            mc = len(chunk)
            X = (chunk @ mesh).transpose(1, 0, 2).reshape(d, mc * r)
            vals = (columnwise(X).reshape(mc, r) / den_mesh).max(axis=1)
            tops = np.linalg.svd(chunk)[2][:, 0, :].conj()
            Mt = np.einsum("mab,mb->ma", chunk, tops)
            num_t, den_t = columnwise(Mt.T), columnwise(tops.T)
            vals_t = np.where(den_t > 0, num_t / np.maximum(den_t, 1e-300), 0.0)
            return np.maximum(vals, vals_t)

        size = max(256, 2_000_000 // max(1, f * r))
        values = np.concatenate([cheap(P[i : i + size]) for i in range(0, len(P), size)])
        order = np.argsort(-values, kind="stable")[:REFINE_TOP]
        best = 0.0
        for idx in order:
            if values[idx] < 0.9 * best:
                break
            values[idx] = max(values[idx], self.matrix_norm(P[idx], refine=True))
            best = max(best, values[idx])
        return values


# the two data/ fixtures at their jsr, and 8 seeded real and complex
# families with m, d in {2, 3}: (mset, rho_hat, depth)
ADAPTED_CASES = [(antidiagonal_pair(), SQRT2, 6), (rank_one_pair(), 2.0, 6)] + [
    (seeded_family(seed, 2 + seed // 2, 2 + seed % 2, c), 1.5, 4)
    for seed in range(4)
    for c in (False, True)
]


def level_summary(values, n, m):
    root = lambda v: v ** (1.0 / n)
    return bounds._level_bound(values, n, m, root, ties=True)


class TestScreenedAdaptedBatch:
    @pytest.mark.parametrize("mset,rho_hat,depth", ADAPTED_CASES)
    def test_levels_match_the_unscreened_reference(self, mset, rho_hat, depth):
        norm = AdaptedNorm(mset, rho_hat, depth)
        reference = UnscreenedAdaptedNorm(mset, rho_hat, depth)
        m = len(mset)
        for n, P in bounds._iter_levels(mset, 8, BudgetCounter()):
            got, want = norm.matrix_norms_batch(P), reference.matrix_norms_batch(P)
            assert level_summary(got, n, m) == level_summary(want, n, m)
            evaluated = ~np.isneginf(got)
            # the last bit of a cheap value follows the word's position in
            # the batched gemm, which the screen changes
            np.testing.assert_allclose(got[evaluated], want[evaluated], rtol=8 * EPS, atol=0)
            # a skipped word is below the REFINE_TOP-th value
            if not evaluated.all():
                kth = np.sort(want)[-REFINE_TOP]
                assert want[~evaluated].max() < kth

    @pytest.mark.parametrize("mset,rho_hat,depth", ADAPTED_CASES)
    def test_sandwich_matches_the_unscreened_reference(self, mset, rho_hat, depth):
        norm = AdaptedNorm(mset, rho_hat, depth)
        reference = UnscreenedAdaptedNorm(mset, rho_hat, depth)
        assert sandwich(mset, 8, norm=norm).rows == sandwich(mset, 8, norm=reference).rows

    def test_screen_skips_words(self):
        mset = antidiagonal_pair()
        norm = AdaptedNorm(mset, SQRT2, 6)
        _, P = list(bounds._iter_levels(mset, 12, BudgetCounter()))[-1]
        values = norm.matrix_norms_batch(P)
        assert np.isneginf(values).sum() > len(P) // 2

    def test_refines_every_word_of_the_top_refine_top(self):
        # depth 0 is the Euclidean norm (L = 1): the bound ||M||_F is tight
        # on rank-one words and loose by sqrt(2) on rotations.  The 127
        # rotations (bound 2.12, value 1.5) fill the seed and the next
        # batch with the peak word (2.05); the rank-one words (1.6 to 1.9)
        # come later and hold 15 of the 16 largest values.
        norm = AdaptedNorm(MatrixSet([np.eye(2)]), 1.0, 0)
        rng = np.random.default_rng(43)
        angles = rng.uniform(0.0, 2.0 * np.pi, 127)
        c, s = np.cos(angles), np.sin(angles)
        rotations = 1.5 * np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
        rank_one = lambda t: t * np.outer([0.6, 0.8], [0.8, -0.6])
        P = np.concatenate(
            [rotations, [rank_one(2.05)], [rank_one(t) for t in np.linspace(1.6, 1.9, 20)]]
        )
        got = norm.matrix_norms_batch(P)
        want = UnscreenedAdaptedNorm(norm.mset, 1.0, 0).matrix_norms_batch(P)
        top = np.argsort(-want, kind="stable")[:REFINE_TOP]
        assert not np.isneginf(got[top]).any()
        assert level_summary(got, 1, len(P)) == level_summary(want, 1, len(P))

    @pytest.mark.parametrize("mset,rho_hat,depth", ADAPTED_CASES)
    def test_norm_is_below_the_screening_bound(self, mset, rho_hat, depth):
        norm = AdaptedNorm(mset, rho_hat, depth)
        rng = np.random.default_rng(31)
        for _ in range(10):
            M = rng.standard_normal((mset.d, mset.d)) + 1j * rng.standard_normal((mset.d, mset.d))
            value = norm.matrix_norm(M)
            assert value <= norm._family_norm * operator_norm(M) * (1 + 1e-12)
            assert value <= norm._family_norm * np.linalg.norm(M) * (1 + 1e-12)

    def test_underflowing_frobenius_norms_screen_nothing(self):
        # |||.||| weighs e2 by 2**40, so these words have adapted norms
        # near 2**-498 > SCREEN_FLOOR while the squares in ||P||_F
        # (2**-1076 and below) round to zero or to one subnormal
        norm = AdaptedNorm(MatrixSet([np.diag([1.0, 2.0**40])]), 1.0, 1)
        rng = np.random.default_rng(41)
        P = np.zeros((300, 2, 2))
        P[:, 1, 0] = 2.0**-538 * rng.uniform(1.0, 2.0, 300)
        got = norm.matrix_norms_batch(P)
        want = UnscreenedAdaptedNorm(norm.mset, 1.0, 1).matrix_norms_batch(P)
        assert got.min() > bounds.SCREEN_FLOOR
        assert np.array_equal(got, want)


class TestExtremalityResidual:
    def test_euclidean_already_extremal_for_diagonal(self):
        mset = MatrixSet([np.diag([1.0, 0.5])])
        res = extremality_residual(mset, EuclideanNorm(), rho_hat=1.0)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_euclidean_residual_of_half_rank_one(self, half_rank_one):
        res = extremality_residual(half_rank_one, EuclideanNorm(), rho_hat=1.0)
        assert res.value == pytest.approx(SQRT2 - 1, rel=1e-6)

    def test_adapted_residual_decays_with_depth(self, half_rank_one):
        previous = math.inf
        for N in range(1, 5):
            norm = AdaptedNorm(half_rank_one, rho_hat=1.0, depth=N)
            res = extremality_residual(half_rank_one, norm, rho_hat=1.0)
            assert res.value <= 2 ** (1 / (2 * (N + 1))) - 1 + 1e-9
            assert res.value <= previous + 1e-12
            previous = res.value


class TestProductBounded:
    def test_rotation_is_bounded(self):
        c, s = math.cos(1.0), math.sin(1.0)
        rot = MatrixSet([[[c, -s], [s, c]]])
        assert is_product_bounded(rot, 20, 2.0).verdict == BOUNDED

    def test_shear_growth_detected(self):
        shear = MatrixSet([[[1, 1], [0, 1]]])
        assert is_product_bounded(shear, 20, 10.0).verdict == GROWTH

    def test_scaled_antidiagonal_bounded(self, scaled_antidiagonal):
        assert is_product_bounded(scaled_antidiagonal, 12, 4.0).verdict == BOUNDED

    @pytest.mark.parametrize(
        "mset",
        [rank_one_pair(), antidiagonal_pair()]
        + [seeded_family(seed, d, 2, c) for seed in (0, 1) for d in (2, 3) for c in (False, True)],
    )
    def test_level_maxima_match_brute_force(self, mset):
        maxima = is_product_bounded(mset, 8, 1.0).level_maxima
        assert len(maxima) == 8
        for n, value in enumerate(maxima, start=1):
            words = itertools.product(range(len(mset)), repeat=n)
            expected = max(operator_norm(mset.product(w)) for w in words)
            assert value == pytest.approx(expected, rel=1e-12)


class TestYMembership:
    def test_diagonal_singleton_consistent(self):
        mset = MatrixSet([np.diag([1.0, 0.5])])
        report = y_membership(mset, EuclideanNorm(), PeriodicWord([0]), 8)
        assert report.verdict == "consistent"
        assert max(abs(m) for m in report.margins) < 1e-9

    def test_alternating_orbit_consistent(self, scaled_antidiagonal):
        norm = AdaptedNorm(scaled_antidiagonal, rho_hat=1.0, depth=6)
        report = y_membership(scaled_antidiagonal, norm, PeriodicWord([0, 1]), 8)
        assert report.verdict == "consistent"
        assert max(abs(1 - v) for v in report.values) < 1e-6

    def test_fixed_word_rejected_quickly(self, scaled_antidiagonal):
        # the square of the scaled double-swap is the half identity
        norm = AdaptedNorm(scaled_antidiagonal, rho_hat=1.0, depth=6)
        report = y_membership(scaled_antidiagonal, norm, PeriodicWord([0]), 8)
        assert report.verdict == "rejected-at-2"
        assert report.rejected_at == 2
        assert report.values[1] == pytest.approx(0.5, rel=1e-9)

    def test_unnormalised_set_refused(self):
        with pytest.raises(NormalizationError):
            y_membership(rank_one_pair(), EuclideanNorm(), PeriodicWord([0]), 4)

    def test_norm_one_prefixes_are_nested(self, scaled_antidiagonal, half_rank_one):
        # if the (n+1)-step product along a word keeps norm one, so does
        # the n-step product; checked exhaustively to depth 8
        for mset in (scaled_antidiagonal, half_rank_one):
            norm = AdaptedNorm(mset, rho_hat=1.0, depth=4)
            values = {(): 1.0}
            words = [()]
            for _ in range(8):
                words = [w + (j,) for w in words for j in range(len(mset))]
                for w in words:
                    values[w] = norm.matrix_norm(mset.product(w), refine=False)
            tol = 1e-6
            for w, v in values.items():
                if len(w) >= 1 and abs(v - 1.0) < tol:
                    assert abs(values[w[:-1]] - 1.0) < tol

    def test_budget_error_names_feasible_depth_in_message(self):
        with pytest.raises(BudgetExceededError, match="largest feasible depth is 3"):
            AdaptedNorm(rank_one_pair(), rho_hat=1.0, depth=10, budget=15)

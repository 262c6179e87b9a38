import itertools
import math

import numpy as np
import pytest

from jsrkit.bounds import BudgetCounter, BudgetExceededError, MatrixSet
from jsrkit.extremal import (
    BOUNDED,
    GROWTH,
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

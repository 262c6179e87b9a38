import itertools
import math

import numpy as np
import pytest

from jsrkit import bounds
from jsrkit.bounds import (
    BudgetCounter,
    BudgetExceededError,
    MatrixSet,
    pruned_bounds,
    rho_plus_n,
    sandwich,
)
from jsrkit.cocycle import certify_lower
from jsrkit.extremal import (
    BOUNDED,
    GROWTH,
    INCONCLUSIVE,
    AdaptedNorm,
    EuclideanNorm,
    NormalizationError,
    extremality_residual,
    is_product_bounded,
    y_membership,
)
from jsrkit.gallery import antidiagonal_pair, rank_one_pair
from jsrkit.linalg import DimensionError, operator_norm
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

    @pytest.mark.parametrize("rho_hat", [math.nan, math.inf, 0.0])
    def test_rejects_rho_hat_outside_zero_to_infinity(self, rho_hat):
        # nan read every norm as nan; inf zeroed every member but the identity
        with pytest.raises(ValueError, match="rho_hat"):
            AdaptedNorm(antidiagonal_pair(), rho_hat, 3)

    @pytest.mark.parametrize("rho_hat", [2.0**-1040, 1e-300])
    def test_rejects_rho_hat_beyond_the_float64_range(self, rho_hat):
        # 2**-1040 is subnormal, so 2**1039 is not a float64 number; at
        # 1e-300 the normalised products of length 2 overflow
        with pytest.raises(ValueError, match="rho_hat"):
            AdaptedNorm(antidiagonal_pair(), rho_hat, 2)

    def test_family_is_built_at_extreme_scale(self):
        # rho_hat**-4 is 2**1198 here; scaling the set by a power of two is
        # exact, so the family equals the unscaled one bit for bit
        tiny = AdaptedNorm(antidiagonal_pair().scaled(2.0**-300), SQRT2 * 2.0**-300, 4)
        plain = AdaptedNorm(antidiagonal_pair(), SQRT2, 4)
        assert np.array_equal(tiny._family, plain._family)

    @pytest.mark.parametrize(
        "mset,depth", [(rank_one_pair(), 6), (seeded_family(3, 3, 2, True), 4)]
    )
    def test_family_charges_every_product_to_the_counter(self, mset, depth):
        m = len(mset)
        counter = BudgetCounter()
        counter.charge(7)  # earlier work of the same run
        AdaptedNorm(mset, rho_hat=1.0, depth=depth, budget=counter)
        assert counter.used == 7 + sum(m**k for k in range(1, depth + 1))

    def test_budget_error_counts_what_the_counter_spent(self):
        # 150 of 200 spent; depth 6 of a pair costs 126, and 50 reach depth 4
        counter = BudgetCounter(200)
        counter.charge(150)
        with pytest.raises(BudgetExceededError, match="largest feasible depth is 4$") as info:
            AdaptedNorm(antidiagonal_pair(), 1.4, 6, budget=counter)
        assert (info.value.needed, info.value.limit, counter.used) == (276, 200, 150)


# reference values per (norm family, batch), shared by the tests of a family
REFERENCE_VALUES = {}


class UnscreenedAdaptedNorm(AdaptedNorm):
    """The reference for the screened batch: the certified kernel, without
    the level screen or its cutoff, on every word that can reach the tie
    window of the batch maximum.

    Words are certified in decreasing order of ``U = max_f ||F_f M||_F``
    until ``U`` falls 1e-6 relative below the running maximum; every later
    word reads ``U``, which bounds its value from above (the kernel's
    values lie below ``max_f ||F_f M||_2``; checked on every certified
    word).  So the maximum, its first argmax and the tie window equal those
    of certifying every word, and a word that reads ``U`` lies outside the
    window, as its value does.  A value depends on its own matrix only, so
    the values of a batch are computed once and shared.
    """

    def matrix_norms_batch(self, P, fro):
        P = np.asarray(P)
        key = (self._family.tobytes(), P.tobytes())
        if key not in REFERENCE_VALUES:
            REFERENCE_VALUES[key] = self._reference(P)
        return REFERENCE_VALUES[key].copy()

    def _reference(self, P):
        U = np.concatenate([
            np.linalg.norm(np.matmul(self._family, P[i:i + 256, None]), axis=(2, 3)).max(axis=1)
            for i in range(0, len(P), 256)
        ])
        values, order, best = U.copy(), np.argsort(-U, kind="stable"), -np.inf
        while len(order) and U[order[0]] * (1 + 1e-9) >= best * (1 - 1e-6):
            batch, order = order[:128], order[128:]
            values[batch] = self._certified(P[batch], -np.inf)
            assert (values[batch] <= U[batch] * (1 + 1e-9)).all()
            best = max(best, values[batch].max())
        return values


# the two data/ fixtures at their jsr, and 8 seeded real and complex
# families with m, d in {2, 3}: (mset, rho_hat, depth)
ADAPTED_CASES = [(antidiagonal_pair(), SQRT2, 6), (rank_one_pair(), 2.0, 6)] + [
    (seeded_family(seed, 2 + seed // 2, 2 + seed % 2, c), 1.5, 4)
    for seed in range(4)
    for c in (False, True)
]


def level_summary(values, n, m):
    return bounds._level_bound(values, np.arange(len(values)), n, m, ties=True)


class TestScreenedAdaptedBatch:
    @pytest.mark.parametrize("mset,rho_hat,depth", ADAPTED_CASES)
    def test_levels_match_the_unscreened_reference(self, mset, rho_hat, depth):
        norm = AdaptedNorm(mset, rho_hat, depth)
        reference = UnscreenedAdaptedNorm(mset, rho_hat, depth)
        m = len(mset)
        for n, P in bounds._iter_levels(mset, 8, BudgetCounter()):
            fro = bounds._frobenius_norms(P)
            got, want = norm.matrix_norms_batch(P, fro), reference.matrix_norms_batch(P, fro)
            assert level_summary(got, n, m) == level_summary(want, n, m)
            evaluated = ~np.isneginf(got)
            exact = reference._certified(P[evaluated], -np.inf)
            np.testing.assert_allclose(got[evaluated], exact, rtol=8 * EPS, atol=0)
            # a skipped word is outside the tie window of the maximum
            if not evaluated.all():
                assert want[~evaluated].max() < want.max() * (1 - bounds.TIE_RTOL)

    @pytest.mark.parametrize("mset,rho_hat,depth", ADAPTED_CASES)
    def test_sandwich_matches_the_unscreened_reference(self, mset, rho_hat, depth):
        # sandwich runs the norm's kernel under its own screen, not
        # matrix_norms_batch: each row's upper value and word against the
        # level bound of the reference's unscreened values
        norm = AdaptedNorm(mset, rho_hat, depth)
        reference = UnscreenedAdaptedNorm(mset, rho_hat, depth)
        rows = sandwich(mset, 8, norm=norm).rows
        assert len(rows) == 8
        for row, (n, P) in zip(rows, bounds._iter_levels(mset, 8, BudgetCounter())):
            want = level_summary(reference.matrix_norms_batch(P, bounds._frobenius_norms(P)), n, len(mset))
            assert (row.rho_plus, row.word_plus) == (want.value, want.word)

    def test_screen_skips_words(self):
        mset = antidiagonal_pair()
        norm = AdaptedNorm(mset, SQRT2, 6)
        _, P = list(bounds._iter_levels(mset, 12, BudgetCounter()))[-1]
        values = norm.matrix_norms_batch(P, bounds._frobenius_norms(P))
        assert np.isneginf(values).sum() > len(P) // 2

    @pytest.mark.parametrize("mset,rho_hat,depth", ADAPTED_CASES)
    def test_norm_is_below_the_screening_bound(self, mset, rho_hat, depth):
        norm = AdaptedNorm(mset, rho_hat, depth)
        rng = np.random.default_rng(31)
        for _ in range(10):
            M = rng.standard_normal((mset.d, mset.d)) + 1j * rng.standard_normal((mset.d, mset.d))
            value = norm.matrix_norm(M)
            assert value <= norm.factor * operator_norm(M) * (1 + 1e-12)
            assert value <= norm.factor * np.linalg.norm(M) * (1 + 1e-12)

    def test_underflowing_frobenius_norms_screen_nothing(self):
        # |||.||| weighs e2 by 2**40, so these words have adapted norms
        # near 2**-498 > SCREEN_FLOOR while the squares in ||P||_F
        # (2**-1076 and below) round to zero or to one subnormal
        norm = AdaptedNorm(MatrixSet([np.diag([1.0, 2.0**40])]), 1.0, 1)
        rng = np.random.default_rng(41)
        P = np.zeros((300, 2, 2))
        P[:, 1, 0] = 2.0**-538 * rng.uniform(1.0, 2.0, 300)
        fro = bounds._frobenius_norms(P)
        got = norm.matrix_norms_batch(P, fro)
        want = UnscreenedAdaptedNorm(norm.mset, 1.0, 1).matrix_norms_batch(P, fro)
        assert got.min() > bounds.SCREEN_FLOOR
        assert np.array_equal(got, want)


def multistart_lower(norm, M, starts=32, rounds=150, seed=0):
    """A lower value of ``|||M|||``: the best ``|||M v||| / |||v|||`` of a
    seeded random local search from ``starts`` complex starting vectors."""
    rng = np.random.default_rng(seed)
    shape = (M.shape[0], starts)
    V = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ratio = lambda V: norm.vector_norms(M @ V) / norm.vector_norms(V)
    best = ratio(V)
    radius = 0.5
    for _ in range(rounds):
        W = V + radius * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        got = ratio(W)
        V[:, got > best] = W[:, got > best]
        best = np.maximum(best, got)
        radius *= 0.95
    return best.max()


# seeded real and complex families with m, d in {2, 3}
ENSEMBLE = [
    seeded_family(100 + seed, 2 + (seed // 2) % 2, 2 + seed % 2, seed >= 4) for seed in range(8)
]


def ensemble_norm(mset):
    return AdaptedNorm(mset, pruned_bounds(mset, 0.05, max_depth=10).lower, 4)


class TestCertifiedKernel:
    @pytest.mark.parametrize("mset", ENSEMBLE)
    def test_values_bound_a_multistart_lower_value(self, mset):
        norm = ensemble_norm(mset)
        P = np.concatenate([mset.stack(), [mset.product(w) for w in [(0, 1), (1, 0, 1)]]])
        for M, value in zip(P, norm.matrix_norms_batch(P, bounds._frobenius_norms(P))):
            lower = multistart_lower(norm, M)
            assert value >= lower * (1 - 1e-12)
            # and not loose: the descent closes to within 1% of the search
            assert value <= lower * 1.01

    @pytest.mark.parametrize("mset", ENSEMBLE)
    def test_adapted_enclosure_is_sound(self, mset):
        report = sandwich(mset, 6, norm=ensemble_norm(mset))
        assert len(report.rows) == 6
        assert report.best_upper() >= report.best_lower()

    @pytest.mark.parametrize("seed", range(1000, 1008))
    def test_enclosure_at_the_probe_lower_value_is_sound(self, seed):
        # the CLI's rho_hat, a lower bound: the upper values close on the
        # lower ones (to 3e-13 for seed 1004), and must not cross them, which
        # sandwich would report with InternalInvariantError
        mset = seeded_family(seed, 2 + seed % 2, 2 + (seed // 2) % 2, (seed // 4) % 2 == 1)
        norm = AdaptedNorm(mset, pruned_bounds(mset, 0.05, max_depth=14).lower, 4)
        report = sandwich(mset, 6, norm=norm)
        assert len(report.rows) == 6
        assert all(row.best_lower <= row.best_upper for row in report.rows)

    def test_values_depend_on_the_matrix_only(self):
        mset = ENSEMBLE[7]
        norm = ensemble_norm(mset)
        _, P = list(bounds._iter_levels(mset, 3, BudgetCounter()))[-1]
        values = norm._certified(P, -np.inf)
        order = np.random.default_rng(5).permutation(len(P))
        assert np.array_equal(norm._certified(P[order], -np.inf), values[order])
        assert [norm.matrix_norm(M) for M in P[:4]] == list(values[:4])

    @pytest.mark.parametrize("mset", [ENSEMBLE[0], ENSEMBLE[7]])
    def test_cutoff_reads_full_values_or_minus_inf_below_it(self, mset):
        norm = ensemble_norm(mset)
        _, P = list(bounds._iter_levels(mset, 5, BudgetCounter()))[-1]
        full = norm._certified(P, -np.inf)
        cutoffs, kernel = [], norm._certified
        norm._certified = lambda P, cutoff: cutoffs.append(cutoff) or kernel(P, cutoff)
        for q in (0.3, 0.6, 0.9):
            cutoff = np.quantile(full, q)
            got = norm._certified(P, cutoff)
            shown = ~np.isneginf(got)
            assert np.array_equal(got[shown], full[shown])
            assert 0 < (~shown).sum() and (full[~shown] < cutoff * (1 + 1e-12)).all()
        # some word was left above the cutoff by a cut and certified again
        assert -np.inf in cutoffs

    def test_generators_are_not_under_read(self):
        # the Nelder-Mead search read generator 0 as 2.162022; a multistart
        # search finds 2.203841
        mset = MatrixSet(np.random.default_rng(100).standard_normal((2, 3, 3)))
        norm = AdaptedNorm(mset, pruned_bounds(mset, 0.05, max_depth=14).lower, 6)
        value = norm.matrix_norm(mset[0])
        assert value >= 2.20384
        assert value >= multistart_lower(norm, mset[0]) * (1 - 1e-12)


def full_family(mset, rho_hat, depth):
    """Every scaled product ``rho_hat^(-k) A_w``, |w| = k <= depth, unpruned."""
    words = [w for k in range(depth + 1) for w in itertools.product(range(len(mset)), repeat=k)]
    return np.stack([mset.product(w) / rho_hat ** len(w) for w in words])


class TestLoewnerPrunedFamily:
    @pytest.mark.parametrize(
        "mset,rho_hat,depth,full,kept",
        [
            (antidiagonal_pair(), SQRT2, 6, 127, 2),
            (rank_one_pair(), 2.0, 6, 127, 2),
            (MatrixSet(np.random.default_rng(100).standard_normal((2, 3, 3))), 1.775, 6, 127, 46),
        ],
    )
    def test_family_sizes(self, mset, rho_hat, depth, full, kept):
        norm = AdaptedNorm(mset, rho_hat, depth)
        assert (norm.full_family_size, norm.family_size) == (full, kept)
        assert len(norm._family) == len(norm._grams) == kept
        assert np.array_equal(norm._family[0], np.eye(mset.d))

    @pytest.mark.parametrize("mset", ENSEMBLE)
    def test_vector_norms_equal_those_of_the_full_family(self, mset):
        norm = ensemble_norm(mset)
        assert norm.family_size < norm.full_family_size
        family = full_family(mset, norm.rho_hat, norm.depth)
        rng = np.random.default_rng(7)
        V = rng.standard_normal((mset.d, 200)) + 1j * rng.standard_normal((mset.d, 200))
        want = np.linalg.norm(np.matmul(family, V), axis=1).max(axis=0)
        np.testing.assert_allclose(norm.vector_norms(V), want, rtol=1e-14, atol=0)

    def test_dropped_members_are_dominated(self):
        mset = ENSEMBLE[7]
        norm = ensemble_norm(mset)
        family = full_family(mset, norm.rho_hat, norm.depth)
        grams = np.swapaxes(family, 1, 2).conj() @ family
        kept = norm._grams.reshape(-1, mset.d, mset.d)
        for G in grams:
            margin = np.linalg.eigvalsh(G - kept)[:, -1].min()
            assert margin <= 1e-14 * np.linalg.norm(G, 2)


class TestExtremalityResidual:
    @pytest.mark.parametrize("rho_hat", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_rho_hat_raises(self, rho_hat):
        with pytest.raises(ValueError, match="rho_hat must be positive and finite"):
            extremality_residual(rank_one_pair(), EuclideanNorm(), rho_hat=rho_hat)

    def test_euclidean_already_extremal_for_diagonal(self):
        mset = MatrixSet([np.diag([1.0, 0.5])])
        res = extremality_residual(mset, EuclideanNorm(), rho_hat=1.0)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_euclidean_residual_of_half_rank_one(self, half_rank_one):
        res = extremality_residual(half_rank_one, EuclideanNorm(), rho_hat=1.0)
        assert res.value == pytest.approx(SQRT2 - 1, rel=1e-6)

    def test_adapted_residual_is_not_under_read(self):
        # a multistart search proves |||B_0||| / rho_hat - 1 >= 0.23542; the
        # sampled residual read 0.22928, the certified one reads 0.23752
        mset = MatrixSet(np.random.default_rng(100).standard_normal((2, 3, 3)))
        rho_hat = 1.775272
        norm = AdaptedNorm(mset, rho_hat, 6)
        res = extremality_residual(mset, norm, rho_hat=rho_hat)
        assert res.value >= (multistart_lower(norm, mset[0]) / rho_hat - 1) * (1 - 1e-12)
        assert res.value >= 0.2354

    def test_adapted_residual_decays_with_depth(self, half_rank_one):
        previous = math.inf
        for N in range(1, 5):
            norm = AdaptedNorm(half_rank_one, rho_hat=1.0, depth=N)
            res = extremality_residual(half_rank_one, norm, rho_hat=1.0)
            assert res.value <= 2 ** (1 / (2 * (N + 1))) - 1 + 1e-9
            assert res.value <= previous + 1e-12
            previous = res.value


def first_row(report, decides):
    """The first row of ``report`` whose running enclosure ``decides``."""
    return next(row for row in report.rows if decides(row))


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return MatrixSet([[[c, -s], [s, c]]])


SHEAR = MatrixSet([[[1, 1], [0, 1]]])
# every power stays below 10.05 in 2-norm, while the level maxima rise
# towards that supremum
CONTRACTING_SHEAR = MatrixSet([[[1, 1], [0, 0.9]]])


class TestProductBounded:
    @pytest.mark.parametrize(
        "mset, depth, guess, budget",
        [
            (rotation(1.0), 20, 2.0, None),
            (SHEAR, 20, 10.0, None),
            (CONTRACTING_SHEAR, 20, 5.0, None),
            (antidiagonal_pair().scaled(1 / SQRT2), 12, 1.1, None),
            (antidiagonal_pair().scaled(1 / SQRT2), 12, 4.0, None),
            (seeded_family(0, 3, 2, True), 6, 3.0, None),
        ],
    )
    def test_bounded_is_proved_at_its_level(self, mset, depth, guess, budget):
        # the deciding level n has every ||A_w||_2 < guess**n, by brute force
        result = is_product_bounded(mset, depth, guess, budget=budget)
        assert result.verdict == BOUNDED
        row = first_row(result.report, lambda row: row.best_upper < guess * (1 - bounds.SCREEN_SLACK))
        words = itertools.product(range(len(mset)), repeat=row.n)
        assert max(operator_norm(mset.product(w)) for w in words) < guess**row.n

    @pytest.mark.parametrize(
        "mset, depth, guess, budget",
        [
            (antidiagonal_pair(), 30, 1.2, 100),
            (antidiagonal_pair().scaled(1 / SQRT2), 12, 0.9, None),
            (SHEAR, 4, 0.5, None),
            (seeded_family(1, 3, 2, False), 6, 1.0, None),
        ],
    )
    def test_growth_is_witnessed_by_a_word(self, mset, depth, guess, budget):
        result = is_product_bounded(mset, depth, guess, budget=budget)
        assert result.verdict == GROWTH
        row = first_row(result.report, lambda row: row.best_lower > guess * (1 + bounds.SCREEN_SLACK))
        assert certify_lower(mset, row.word_minus).value > guess

    @pytest.mark.parametrize(
        "mset, depth, guess",
        [
            # the jsr equals the guess: bounded for the rotation, unbounded
            # for the shear, and no enclosure tells them apart
            (rotation(1.0), 20, 1.0),
            (SHEAR, 20, 1.0),
            (antidiagonal_pair().scaled(1 / SQRT2), 12, 1.0),
            # the matrix squares to I; one level encloses the jsr 1 in [1, 2]
            (MatrixSet([[[0, 2], [0.5, 0]]]), 1, 1.5),
        ],
    )
    def test_undecided_enclosure_is_inconclusive(self, mset, depth, guess):
        assert is_product_bounded(mset, depth, guess).verdict == INCONCLUSIVE

    def test_truncated_report_keeps_its_verdict(self):
        # the budget of 100 covers levels 1-5 (62 products), not level 6;
        # level 2 already has every ||A_w||_2 = 2 < 2.0**2
        result = is_product_bounded(antidiagonal_pair(), 30, 2.0, budget=100)
        assert result.report.truncated and len(result.report.rows) == 5
        assert result.verdict == BOUNDED

    # five levels enclose the jsr sqrt(2) exactly, at the guess; a budget
    # below the first level leaves no row
    @pytest.mark.parametrize("guess, budget, levels", [(SQRT2, 100, 5), (1.0, 1, 0)])
    def test_truncated_undecided_report_is_inconclusive(self, guess, budget, levels):
        result = is_product_bounded(antidiagonal_pair(), 30, guess, budget=budget)
        assert result.report.truncated and len(result.report.rows) == levels
        assert result.verdict == INCONCLUSIVE

    @pytest.mark.parametrize("guess", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_guess_raises(self, guess):
        with pytest.raises(ValueError, match="bound_guess must be positive and finite"):
            is_product_bounded(rotation(1.0), 4, guess)


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

    def test_set_whose_enclosure_meets_the_window_is_accepted(self):
        # jsr = 2 / 1.7 = 1.17647 is the depth-4 lower bound, inside the
        # window; the geometric-mean estimate once put it outside and refused
        report = y_membership(rank_one_pair().scaled(1 / 1.7), EuclideanNorm(), PeriodicWord([0]), 4)
        assert report.depth == 4

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
                    values[w] = norm.matrix_norm(mset.product(w))
            tol = 1e-6
            for w, v in values.items():
                if len(w) >= 1 and abs(v - 1.0) < tol:
                    assert abs(values[w[:-1]] - 1.0) < tol

    def test_budget_error_names_feasible_depth_in_message(self):
        with pytest.raises(BudgetExceededError, match="largest feasible depth is 3"):
            AdaptedNorm(rank_one_pair(), rho_hat=1.0, depth=10, budget=15)


class ScaledEuclideanNorm(bounds.Norm):
    """``c ||.||_2``, defined by the four members of the norm protocol."""

    def __init__(self, c):
        self.c = c
        self.label = "%g * euclidean" % c
        # c ||Q||_2 <= c ||Q||_F
        self.factor = c

    def vector_norms(self, V):
        V = np.asarray(V, dtype=complex)
        return self.c * np.linalg.norm(V.reshape(len(V), -1), axis=0)

    def matrix_norms(self, Q, cutoff):
        return self.c * bounds._euclidean_norms(Q)


class TestNormProtocol:
    # a power of two scales every norm, bound and screen decision exactly
    C = 2.0

    @pytest.mark.parametrize("mset", [rank_one_pair(), antidiagonal_pair()] + ENSEMBLE[:4])
    def test_third_norm_runs_through_the_level_pipeline(self, mset):
        norm = ScaledEuclideanNorm(self.C)
        for n in (1, 4, 7):
            got, want = rho_plus_n(mset, n, norm=norm, ties=True), rho_plus_n(mset, n, ties=True)
            assert got.value == pytest.approx(self.C ** (1 / n) * want.value, rel=1e-14)
            assert (got.word, got.ties) == (want.word, want.ties)
        report, euclidean = sandwich(mset, 7, norm=norm), sandwich(mset, 7)
        assert report.norm_label == "2 * euclidean"
        for row, ref in zip(report.rows, euclidean.rows, strict=True):
            assert row.rho_plus == pytest.approx(self.C ** (1 / row.n) * ref.rho_plus, rel=1e-14)
            assert (row.rho_minus, row.best_lower) == (ref.rho_minus, ref.best_lower)
            assert (row.word_plus, row.word_minus) == (ref.word_plus, ref.word_minus)

    def test_third_norm_runs_through_the_extremal_diagnostics(self, half_rank_one):
        norm = ScaledEuclideanNorm(self.C)
        worst = max(EuclideanNorm().matrix_norm(A) for A in half_rank_one)
        res = extremality_residual(half_rank_one, norm, rho_hat=1.0)
        assert res.value == self.C * worst - 1.0
        mset = MatrixSet([np.diag([1.0, 0.5])])
        got = y_membership(mset, norm, PeriodicWord([0]), 8)
        want = y_membership(mset, EuclideanNorm(), PeriodicWord([0]), 8)
        assert got.values == [self.C * v for v in want.values]
        assert got.verdict == want.verdict == "consistent"
        assert got.excess_at == list(range(1, 9))

    @pytest.mark.parametrize("cls", [EuclideanNorm, AdaptedNorm, ScaledEuclideanNorm])
    def test_derived_members_are_defined_once(self, cls):
        assert issubclass(cls, bounds.Norm)
        assert not {"vector_norm", "matrix_norm", "matrix_norms_batch"} & set(vars(cls))

    def test_euclidean_matrix_norm_agrees_with_the_svd(self):
        rng = np.random.default_rng(71)
        norm = EuclideanNorm()
        for d, complex_entries, rank in itertools.product(range(1, 5), (False, True), (1, 4)):
            for _ in range(25):
                shape = (d, min(rank, d))
                L, R = rng.standard_normal(shape), rng.standard_normal(shape[::-1])
                if complex_entries:
                    L = L + 1j * rng.standard_normal(shape)
                M = 10.0 ** rng.uniform(-3, 3) * (L @ R)
                want = operator_norm(M)
                assert abs(norm.matrix_norm(M) - want) <= 1e-14 * want

    @pytest.mark.parametrize(
        "norm", [EuclideanNorm(), AdaptedNorm(rank_one_pair(), 2.0, 2)], ids=repr
    )
    def test_matrix_norm_rejects_other_shapes(self, norm):
        for bad in ([1.0, 2.0], np.ones((1, 2, 2))):
            with pytest.raises(DimensionError):
                norm.matrix_norm(bad)
        if isinstance(norm, AdaptedNorm):
            with pytest.raises(DimensionError):
                norm.matrix_norm(np.eye(3))

    def test_each_diagnostic_reads_its_stack_in_one_call(self, scaled_antidiagonal):
        for norm in (EuclideanNorm(), AdaptedNorm(scaled_antidiagonal, 1.0, 4)):
            calls, kernel = [], norm.matrix_norms
            norm.matrix_norms = lambda Q, cutoff: calls.append((len(Q), cutoff)) or kernel(Q, cutoff)
            extremality_residual(scaled_antidiagonal, norm, rho_hat=1.0)
            assert calls == [(2, -np.inf)]
            calls.clear()
            y_membership(scaled_antidiagonal, norm, PeriodicWord([0, 1]), 8)
            assert calls == [(8, -np.inf)]

    @pytest.mark.parametrize(
        "norm", [EuclideanNorm(), AdaptedNorm(rank_one_pair(), 2.0, 2)], ids=repr
    )
    def test_vector_norms_take_a_vector_as_one_column(self, norm):
        one = norm.vector_norms([3.0, 4.0])
        assert one.shape == (1,)
        assert one[0] == norm.vector_norm([3.0, 4.0])
        V = np.random.default_rng(3).standard_normal((2, 5))
        many = norm.vector_norms(V)
        assert many.shape == (5,)
        np.testing.assert_allclose(many, [norm.vector_norms(v)[0] for v in V.T], rtol=1e-14)

    @pytest.mark.parametrize(
        "norm", [EuclideanNorm(), AdaptedNorm(rank_one_pair(), 2.0, 0)], ids=repr
    )
    def test_vector_norms_reject_other_shapes(self, norm):
        # a 2 x 2 array is not one vector: it used to read as its Frobenius
        # norm (Euclidean) or its first column (adapted)
        with pytest.raises(DimensionError):
            norm.vector_norm([[3.0, 0.0], [4.0, 1.0]])
        for bad in (5.0, np.ones((2, 2, 1))):
            with pytest.raises(DimensionError):
                norm.vector_norm(bad)
            with pytest.raises(DimensionError):
                norm.vector_norms(bad)
        assert norm.vector_norm([3.0, 4.0]) == 5.0

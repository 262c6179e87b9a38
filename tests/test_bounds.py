import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from jsrkit import bounds
from jsrkit.bounds import (
    BoundsReport,
    BoundsRow,
    BudgetCounter,
    EUCLIDEAN,
    BudgetExceededError,
    MatrixSet,
    PrunedBounds,
    fit_rate,
    pruned_bounds,
    rho_minus_n,
    rho_plus_n,
    sandwich,
)
from jsrkit.extremal import AdaptedNorm, EuclideanNorm
from jsrkit.gallery import antidiagonal_pair, rank_one_pair
from jsrkit.linalg import operator_norm, spectral_radius

SQRT2 = math.sqrt(2.0)


def brute_force_level(mset, n):
    """Independent enumeration: plain loops over all words."""
    out = {}
    for word in itertools.product(range(len(mset)), repeat=n):
        P = np.eye(mset.d, dtype=complex)
        for s in word:
            P = mset.matrices[s] @ P
        out[word] = P
    return out


def random_family(seed, complex_entries):
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    mats = rng.standard_normal((m, d, d))
    if complex_entries:
        mats = mats + 1j * rng.standard_normal((m, d, d))
    return MatrixSet(list(mats))


def seeded_family(seed, m, d, complex_entries):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((m, d, d))
    if complex_entries:
        mats = mats + 1j * rng.standard_normal((m, d, d))
    return MatrixSet(list(mats))


# the gallery families and seeded real and complex pairs (d <= 3)
BRUTE_FORCE_FAMILIES = [rank_one_pair(), antidiagonal_pair(), seeded_family(4, 2, 2, False)] + [
    seeded_family(seed, 2, d, complex_entries)
    for seed in (0, 1)
    for d in (2, 3)
    for complex_entries in (False, True)
]


def reference_pruned(mset, delta, max_depth, counter):
    """The level-synchronous search evaluated one child at a time, in
    complex arithmetic, by the single-matrix SVD and ``eigvals`` references."""
    m = len(mset)
    counter.charge(m)
    frontier, lower, retired, expanded, depth = [(math.inf, np.eye(mset.d))], 0.0, 0.0, 0, 0
    capped = False
    while True:
        depth += 1
        children = []
        for _, P in frontier:
            for A in mset.matrices:
                child = A @ P
                children.append((operator_norm(child) ** (1.0 / depth), child))
                lower = max(lower, spectral_radius(child) ** (1.0 / depth))
        retired = max([retired] + [s for s, _ in children if not s - lower > delta])
        frontier = [(s, P) for s, P in children if s - lower > delta]
        if capped or not frontier or depth >= max_depth:
            break
        affordable = (counter.limit - counter.used) // m
        if affordable < len(frontier):
            frontier.sort(key=lambda node: -node[0])  # stable: ties keep child order
            retired = max([retired] + [s for s, _ in frontier[affordable:]])
            frontier, capped = frontier[:affordable], True
            if not frontier:
                break
        counter.charge(m * len(frontier))
        expanded += len(frontier)
    upper = max([retired] + [s for s, _ in frontier])
    return PrunedBounds(lower, upper, upper - lower <= delta, expanded, depth, capped)


class TestProductOfWord:
    def test_applies_first_index_first(self):
        E1 = antidiagonal_pair()
        # word (swap, double-swap): swap acts first, so the product is
        # double-swap @ swap = diag(2, 1/2)
        P = E1.product((1, 0))
        assert P == pytest.approx(np.diag([2.0, 0.5]))

    def test_empty_word_is_identity(self):
        E1 = antidiagonal_pair()
        assert E1.product(()) == pytest.approx(np.eye(2))

    def test_involution_squares_to_identity(self):
        E1 = antidiagonal_pair()
        assert E1.product((0, 0)) == pytest.approx(np.eye(2))

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            antidiagonal_pair().product((0, 2))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        mats = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        mset = MatrixSet(list(mats))
        for word, P in brute_force_level(mset, 3).items():
            assert mset.product(word) == pytest.approx(P)


class TestRhoPlus:
    def test_rank_one_pair_closed_form(self):
        E2 = rank_one_pair()
        for n in range(1, 7):
            got = rho_plus_n(E2, n)
            assert got.value == pytest.approx(2 ** (1 + 1 / (2 * n)), rel=1e-12)

    def test_identity_singleton(self):
        one = MatrixSet([np.eye(2)])
        for n in (1, 3, 5):
            assert rho_plus_n(one, n).value == pytest.approx(1.0)

    def test_reports_lexicographically_first_word(self):
        E2 = rank_one_pair()
        assert rho_plus_n(E2, 2).word == (0, 0)

    @pytest.mark.parametrize("mset", BRUTE_FORCE_FAMILIES)
    def test_matches_brute_force(self, mset):
        for n in range(1, 9):
            oracle = max(np.linalg.norm(P, 2) for P in brute_force_level(mset, n).values())
            assert rho_plus_n(mset, n).value ** n == pytest.approx(oracle, rel=1e-12)

    def test_budget_error_names_limit(self):
        E2 = rank_one_pair()
        with pytest.raises(BudgetExceededError, match="budget is 10"):
            rho_plus_n(E2, 10, budget=10)


class TestBudgetCounter:
    def test_negative_limit_is_refused(self):
        # as JSRKIT_BUDGET=-5 is, instead of failing every charge later
        with pytest.raises(ValueError, match="non-negative"):
            BudgetCounter(-5)

    @pytest.mark.parametrize("limit", [2.5, 0.5, 7.0, "7"])
    def test_non_integer_limit_is_refused(self, limit):
        # 2.5 read as 2, 0.5 as 0 and "7" as 7
        with pytest.raises(ValueError, match="non-negative integer"):
            BudgetCounter(limit)

    @pytest.mark.parametrize("limit", [7, np.int64(7), np.uint8(7)])
    def test_python_and_numpy_integers_are_caps(self, limit):
        counter = BudgetCounter(limit)
        assert counter.limit == 7 and type(counter.limit) is int

    def test_error_counts_what_was_spent(self):
        counter = BudgetCounter(10)
        counter.charge(6)
        with pytest.raises(BudgetExceededError) as info:
            counter.charge(5)
        assert (info.value.needed, info.value.limit, counter.used) == (11, 10, 6)
        assert str(info.value).startswith("enumeration needs 11 matrix multiplications, budget is 10")

    def test_remaining_reads_what_is_left_of_the_cap(self):
        counter = BudgetCounter(10)
        assert counter.remaining == 10
        counter.charge(4)
        counter.charge(6)
        assert (counter.remaining, counter.limit - counter.used) == (0, 0)
        with pytest.raises(AttributeError):
            counter.remaining = 5


class TestRhoMinus:
    def test_rank_one_pair(self):
        assert rho_minus_n(rank_one_pair(), 1).value == pytest.approx(2.0, abs=1e-12)

    def test_antidiagonal_even_length(self):
        assert rho_minus_n(antidiagonal_pair(), 2).value == pytest.approx(SQRT2, rel=1e-12)

    def test_antidiagonal_odd_length_collapses(self):
        # every length-3 product has spectral radius exactly 1, so the
        # lower sequence dips; its limsup is not a limit
        assert rho_minus_n(antidiagonal_pair(), 3).value == pytest.approx(1.0, rel=1e-12)

    def test_matches_brute_force(self):
        E1 = antidiagonal_pair()
        for n in (2, 3, 5):
            oracle = max(
                max(abs(np.linalg.eigvals(P))) ** (1 / n)
                for P in brute_force_level(E1, n).values()
            )
            assert rho_minus_n(E1, n).value == pytest.approx(oracle, rel=1e-12)

    def test_tie_words_recorded_without_interpretation(self):
        got = rho_minus_n(rank_one_pair(), 1, ties=True)
        assert got.word == (0,)
        assert got.ties == ((0,), (1,))


class TestSandwich:
    def test_rank_one_pair(self):
        report = sandwich(rank_one_pair(), 3)
        assert report.best_lower() == pytest.approx(2.0, abs=1e-12)
        assert report.best_upper() == pytest.approx(2 ** (7 / 6), rel=1e-12)
        assert all(row.best_lower == pytest.approx(2.0) for row in report.rows)

    def test_scalar_singleton_closes_immediately(self):
        report = sandwich(MatrixSet([np.diag([0.5, 1 / 3])]), 2)
        assert report.rows[0].best_lower == pytest.approx(0.5)
        assert report.rows[0].best_upper == pytest.approx(0.5)

    def test_antidiagonal_lower_sticks_at_sqrt2(self):
        report = sandwich(antidiagonal_pair(), 4)
        for row in report.rows[1:]:
            assert row.best_lower == pytest.approx(SQRT2, rel=1e-12)

    def test_running_bounds_are_monotone_and_ordered(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mats = 0.8 * rng.standard_normal((2, 3, 3))
            report = sandwich(MatrixSet(list(mats)), 6)
            lowers = [row.best_lower for row in report.rows]
            uppers = [row.best_upper for row in report.rows]
            assert lowers == sorted(lowers)
            assert uppers == sorted(uppers, reverse=True)
            for lo, hi in zip(lowers, uppers):
                assert lo <= hi + 1e-9

    def test_budget_exhaustion_truncates_with_flag(self):
        report = sandwich(rank_one_pair(), 12, budget=BudgetCounter(60))
        assert report.truncated
        assert 0 < len(report.rows) < 12


class TestProperties:
    def test_submultiplicative_upper_sequence(self):
        rng = np.random.default_rng(6)
        for _ in range(6):
            k = int(rng.integers(2, 4))
            d = int(rng.integers(2, 4))
            mset = MatrixSet(list(rng.standard_normal((k, d, d))))
            values = {n: rho_plus_n(mset, n).value for n in range(1, 7)}
            for n in range(1, 6):
                for m in range(1, 7 - n):
                    lhs = values[n + m] ** (n + m)
                    rhs = values[n] ** n * values[m] ** m
                    assert lhs <= rhs * (1 + 1e-9)

    def test_lower_sequence_monotone_under_powers(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            mset = MatrixSet(list(rng.standard_normal((2, 2, 2))))
            values = {n: rho_minus_n(mset, n).value for n in range(1, 9)}
            for n in range(1, 9):
                for m in range(2, 9):
                    if n * m <= 8:
                        assert values[n * m] >= values[n] * (1 - 1e-9)

    def test_lower_below_upper_per_length(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            mset = MatrixSet(list(rng.standard_normal((2, 3, 3))))
            for n in range(1, 5):
                assert rho_minus_n(mset, n).value <= rho_plus_n(mset, n).value * (1 + 1e-12)


class TestPrunedBounds:
    def test_rank_one_pair(self):
        result = pruned_bounds(rank_one_pair(), delta=0.1)
        assert result.conclusive
        assert result.lower <= 2.0 <= result.upper
        assert result.upper - result.lower <= 0.1

    def test_scalar_singleton(self):
        result = pruned_bounds(MatrixSet([2 * np.eye(2)]), delta=0.5)
        assert result.lower == pytest.approx(2.0)
        assert result.upper == pytest.approx(2.0)

    def test_antidiagonal_pair(self):
        result = pruned_bounds(antidiagonal_pair(), delta=0.05)
        assert result.conclusive
        assert result.lower <= SQRT2 * (1 + 1e-12)
        assert SQRT2 <= result.upper * (1 + 1e-12)
        assert result.upper - result.lower <= 0.05

    def test_interval_consistent_with_sandwich(self):
        for mset in (rank_one_pair(), antidiagonal_pair()):
            result = pruned_bounds(mset, delta=0.1, max_depth=8)
            report = sandwich(mset, 8)
            # both enclose the target, so they overlap, and the pruned lower
            # bound can only come from a subset of the words the sandwich saw
            assert result.lower <= report.best_lower() + 1e-9
            assert result.lower <= report.best_upper() + 1e-9
            assert report.best_lower() <= result.upper + 1e-9
            mid = 0.5 * (report.best_lower() + report.best_upper())
            assert result.lower - 1e-9 <= mid <= result.upper + 1e-9

    def test_inconclusive_flag_when_depth_hit(self):
        result = pruned_bounds(rank_one_pair(), delta=1e-6, max_depth=4)
        assert not result.conclusive
        assert result.upper - result.lower > 1e-6

    @pytest.mark.parametrize(
        "mset",
        [rank_one_pair(), antidiagonal_pair()]
        + [random_family(seed, c) for seed in range(6) for c in (False, True)],
    )
    def test_matches_the_per_child_reference(self, mset):
        counters = BudgetCounter(6000), BudgetCounter(6000)
        got = pruned_bounds(mset, 0.01, max_depth=20, budget=counters[0])
        ref = reference_pruned(mset, 0.01, 20, counters[1])
        shape = lambda r: (r.conclusive, r.expanded, r.deepest, r.capped)
        assert shape(got) == shape(ref)
        assert got.lower == pytest.approx(ref.lower, rel=1e-12)
        assert got.upper == pytest.approx(ref.upper, rel=1e-12)
        assert counters[0].used == counters[1].used

    def test_budget_stops_mid_level(self):
        # frontiers of 3, 7, 11, 16 and 23 nodes at depths 1-5: the budget
        # covers the root, the first 37 expansions and 10 of the 23 nodes
        mset = random_family(5, complex_entries=True)
        counters = BudgetCounter(3 * (1 + 37 + 10) + 2), BudgetCounter(3 * (1 + 37 + 10) + 2)
        got = pruned_bounds(mset, 1e-3, max_depth=40, budget=counters[0])
        ref = reference_pruned(mset, 1e-3, 40, counters[1])
        assert (got.conclusive, got.expanded, got.deepest) == (False, 47, 6)
        assert counters[0].used == counters[1].used == 3 * (1 + 47)
        assert (ref.conclusive, ref.expanded, ref.deepest) == (False, 47, 6)
        assert got.lower == pytest.approx(ref.lower, rel=1e-12)
        assert got.upper == pytest.approx(ref.upper, rel=1e-12)
        # the 13 nodes left unexpanded are retired into the upper bound
        uncapped = pruned_bounds(mset, 1e-3, max_depth=6)
        assert uncapped.expanded == 60
        assert got.upper >= uncapped.upper
        assert (got.capped, ref.capped, uncapped.capped) == (True, True, False)

    @pytest.mark.parametrize("block", [1, 7])
    def test_identical_for_any_block_size(self, monkeypatch, block):
        families = [random_family(seed, complex_entries=True) for seed in (0, 4, 5)]
        families += [random_family(seed, complex_entries=False) for seed in (0, 1)]

        def search(mset):
            counter = BudgetCounter(400)
            return pruned_bounds(mset, 1e-3, max_depth=12, budget=counter), counter.used

        default = [search(mset) for mset in families]
        for mset, want in zip(families, default):
            # LEVEL_BYTES holds the children of ``block`` parents
            word_bytes = mset.stack()[0].nbytes
            monkeypatch.setattr(bounds, "LEVEL_BYTES", block * len(mset) * word_bytes)
            assert search(mset) == want

    def test_budget_for_the_root_only_stops_at_the_first_level(self):
        counter = BudgetCounter(2)
        result = pruned_bounds(antidiagonal_pair(), 0.01, budget=counter)
        assert result == PrunedBounds(1.0, 2.0, False, 0, 1, True)
        assert counter.used == 2

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_encloses_the_sandwich(self, complex_entries):
        for seed in range(12):
            mset = random_family(seed, complex_entries)
            result = pruned_bounds(mset, 0.01, max_depth=20, budget=BudgetCounter(20000))
            report = sandwich(mset, 8)
            assert result.lower <= report.best_upper() * (1 + 1e-12)
            assert report.best_lower() <= result.upper * (1 + 1e-12)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            pruned_bounds(rank_one_pair(), delta=0.0)

    @pytest.mark.parametrize("delta", [-1.0, math.inf, math.nan])
    def test_rejects_negative_or_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="positive and finite"):
            pruned_bounds(rank_one_pair(), delta=delta)

    @pytest.mark.parametrize("max_depth", [0, -3])
    def test_rejects_max_depth_below_one(self, max_depth):
        # such a search once ran depth 1 and reported deepest=1
        with pytest.raises(ValueError, match="max_depth must be at least 1"):
            pruned_bounds(antidiagonal_pair(), 0.1, max_depth=max_depth)


def unscreened_level(P, n, m, ties):
    """Both level bounds with every word evaluated by the exact kernels."""
    every = np.arange(len(P))
    return [
        bounds._level_bound(bounds._euclidean_norms(P), every, n, m, ties),
        bounds._level_bound(plain_radii(P), every, n, m, ties),
    ]


def both_kernels():
    """The ``(factor, kernel)`` pairs of ``sandwich`` with the Euclidean
    norm, read when called, so that a patched kernel is the one run."""
    return [(1.0, EUCLIDEAN.matrix_norms), (1.0, bounds._spectral_radii)]


# the two gallery families (the data/ fixtures), whose levels have exact
# ties, and seeded random real and complex families (m <= 3, d <= 4)
SCREEN_FAMILIES = [rank_one_pair(), antidiagonal_pair()] + [
    random_family(seed, complex_entries) for seed in range(4) for complex_entries in (False, True)
]


class TestScreenedLevelKernel:
    @pytest.mark.parametrize("mset", SCREEN_FAMILIES)
    def test_matches_unscreened_evaluation_bit_for_bit(self, mset):
        m = len(mset)
        for n, P in bounds._iter_levels(mset, 8, BudgetCounter()):
            screened = bounds._level_bounds(P, bounds._frobenius_norms(P), n, m, both_kernels(), ties=True)
            assert screened == unscreened_level(P, n, m, ties=True)

    def test_screen_skips_words(self):
        levels = bounds._iter_levels(random_family(0, complex_entries=False), 8, BudgetCounter())
        _, P = list(levels)[-1]
        norms = EUCLIDEAN.matrix_norms_batch(P, bounds._frobenius_norms(P))
        assert np.isneginf(norms).sum() > len(P) // 2

    @pytest.mark.parametrize("seed", [1, 5, 16, 100])
    def test_loose_bound_still_evaluates_the_maximum(self, seed):
        # the kernel reads precomputed values by index; the bound is loose
        # by up to 50%, so the maximum may lie outside the seed
        rng = np.random.default_rng(seed)
        values = rng.lognormal(0.0, 0.3, 5000)
        bound = values * (1.0 + rng.uniform(0.0, 0.5, 5000))
        got = bounds._screened(bound, 1.0, lambda idx, cutoff: values[idx], np.arange(5000))
        top = np.argmax(values)
        assert got[top] == values[top]
        evaluated = ~np.isneginf(got)
        assert np.array_equal(got[evaluated], values[evaluated])
        assert not evaluated.all()

    @pytest.mark.parametrize("seed", [1, 16])
    def test_nan_value_screens_nothing(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.lognormal(0.0, 0.3, 500)
        values[7] = np.nan
        bound = values * 1.01
        bound[7] = np.inf  # evaluated in the seed
        got = bounds._screened(bound, 1.0, lambda idx, cutoff: values[idx], np.arange(500))
        assert not np.isneginf(got).any()

    @pytest.mark.parametrize("exponent", [-76, 76])
    def test_extreme_scales_match_unscreened(self, exponent):
        # level-7 products near 2**(+-532): Frobenius squares underflow or
        # overflow, the Gram matrices of the scaled words do not
        base = random_family(1, complex_entries=False)
        mset = base.scaled(2.0**exponent)
        for n, P in bounds._iter_levels(mset, 7, BudgetCounter()):
            got = bounds._level_bounds(P, bounds._frobenius_norms(P), n, len(mset), both_kernels())
            assert got == unscreened_level(P, n, len(mset), False)
        got, ref = rho_plus_n(mset, 7), rho_plus_n(base, 7)
        assert got.word == ref.word
        assert got.value == pytest.approx(2.0**exponent * ref.value, rel=1e-14)

    def test_underflowing_bound_screens_nothing(self):
        # ||P||_F**2 = 2**-1120 rounds to 0 while ||P||_2 = 2**-560: below
        # SCREEN_FLOOR every word must still be evaluated
        P = np.zeros((100, 2, 2))
        P[:, 0, 0] = 2.0**-560
        bound = bounds._frobenius_norms(P)
        assert not bound.any()
        values = EUCLIDEAN.matrix_norms_batch(P, bound)
        assert (values == 2.0**-560).all()

    def test_level_dtype_follows_the_generators(self):
        for mset, dtype in ((rank_one_pair(), np.float64), (random_family(0, True), np.complex128)):
            for _, P in bounds._iter_levels(mset, 3, BudgetCounter()):
                assert P.dtype == dtype

    @pytest.mark.parametrize("mset", SCREEN_FAMILIES[:4])
    def test_budget_charges_the_products_only(self, mset):
        m = len(mset)
        counter = BudgetCounter()
        sandwich(mset, 7, budget=counter)
        assert counter.used == sum(m**k for k in range(1, 8))
        for fn in (rho_plus_n, rho_minus_n):
            counter = BudgetCounter()
            fn(mset, 5, budget=counter)
            assert counter.used == sum(m**k for k in range(1, 6))

    @pytest.mark.parametrize("mset", SCREEN_FAMILIES)
    def test_euclidean_norm_object_is_the_default(self, mset):
        # EuclideanNorm() takes the screened kernel, as norm=None does
        default = sandwich(mset, 7)
        named = sandwich(mset, 7, norm=EuclideanNorm())
        assert named.rows == default.rows
        assert named == default

    @pytest.mark.parametrize("mset", SCREEN_FAMILIES)
    def test_sandwich_identical_for_any_worker_count(self, mset):
        reports = [sandwich(mset, 7, workers=w) for w in (1, 2, 8)]
        assert reports[0] == reports[1] == reports[2]


class TestSingleLengthBounds:
    @pytest.mark.parametrize("mset", SCREEN_FAMILIES)
    def test_each_runs_its_own_kernel_only(self, mset, monkeypatch):
        # rho_plus_n computes no spectral radius and rho_minus_n no norm,
        # yet both equal the level bounds of sandwich's two kernels
        n = 8
        for _, P, fro in bounds._levels(mset, n, BudgetCounter()):
            pass
        plus, minus = bounds._level_bounds(P, fro, n, len(mset), both_kernels(), ties=True)

        def refused(*args):
            raise AssertionError("the other kernel ran")

        with monkeypatch.context() as patch:
            patch.setattr(bounds, "_spectral_radii", refused)
            assert rho_plus_n(mset, n, ties=True) == plus
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "_euclidean_norms", refused)
            assert rho_minus_n(mset, n, ties=True) == minus


def level_family(m, d, complex_entries):
    rng = np.random.default_rng(100 * m + 10 * d + complex_entries)
    mats = rng.standard_normal((m, d, d))
    if complex_entries:
        mats = mats + 1j * rng.standard_normal((m, d, d))
    return MatrixSet(list(mats))


def product_roundoff(d, complex_entries):
    """``gamma`` of one d x d product: ``gamma_d`` for real and ``sqrt(2)
    gamma_(d+2)`` for complex entries (Higham, 2002, sections 3.5-3.6)."""
    k = d + 2 if complex_entries else d
    u = 2.0**-53
    return k * u / (1.0 - k * u) * (math.sqrt(2.0) if complex_entries else 1.0)


def memory_owner(a):
    while a.base is not None:
        a = a.base
    return a


# every pair the level contract is checked on: m generators of size d x d
LEVEL_SHAPES = [(m, d, c) for m in (1, 2, 3) for d in range(1, 6) for c in (False, True)]

# a real 4 x 4 pair to level 16 and a complex 3 x 3 triple to level 10,
# printed as one digest of both last levels
LEVEL_DIGEST = """
import hashlib
import numpy as np
from jsrkit import bounds
rng = np.random.default_rng(11)
real = bounds.MatrixSet(list(rng.standard_normal((2, 4, 4))))
cplx = bounds.MatrixSet(list(rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))))
digest = hashlib.sha256()
for mset, n in ((real, 16), (cplx, 10)):
    for _, P in bounds._iter_levels(mset, n, bounds.BudgetCounter()):
        pass
    digest.update(P.tobytes())
print(digest.hexdigest())
"""


class TestLevelGenerator:
    @pytest.mark.parametrize("m, d, complex_entries", LEVEL_SHAPES)
    def test_each_symbol_block_is_one_product_of_the_stacked_level(self, m, d, complex_entries):
        mset = level_family(m, d, complex_entries)
        stack = mset.stack()
        levels = bounds._iter_levels(mset, {1: 6, 2: 7, 3: 5}[m], BudgetCounter())
        _, P = next(levels)
        assert np.array_equal(P, stack)
        for _, child in levels:
            K = len(P)
            for j in range(m):
                want = (P.reshape(K * d, d) @ stack[j]).reshape(K, d, d)
                assert np.array_equal(child[j * K:(j + 1) * K], want)
            P = child

    @pytest.mark.parametrize("m, d, complex_entries", LEVEL_SHAPES)
    def test_words_match_their_products(self, m, d, complex_entries):
        # the level and MatrixSet.product associate differently; each errs
        # by at most ((1 + gamma)**(n-1) - 1) prod_k ||A_(w_k)||_F, which
        # is below n * gamma times that product of norms
        mset = level_family(m, d, complex_entries)
        fro = np.array([np.linalg.norm(A) for A in mset.matrices])
        gamma = product_roundoff(d, complex_entries)
        for n, P in bounds._iter_levels(mset, {1: 6, 2: 6, 3: 5}[m], BudgetCounter()):
            for i in range(len(P)):
                word = bounds._word_of_index(i, n, m)
                scale = np.prod(fro[list(word)])
                err = np.linalg.norm(P[i] - mset.product(word))
                assert err <= 2 * n * gamma * scale

    @pytest.mark.parametrize("m, d, complex_entries", LEVEL_SHAPES)
    def test_transposed_generators_append(self, m, d, complex_entries):
        # the pruned search's orientation: child j*K + i is (A_j P_i)^T;
        # both products err by at most gamma ||A_j||_F ||P_i||_F
        mset = level_family(m, d, complex_entries)
        stack = mset.stack()
        gamma = product_roundoff(d, complex_entries)
        for _, P in bounds._iter_levels(mset, 3, BudgetCounter()):
            K = len(P)
            child = bounds._extend(np.swapaxes(P, 1, 2), np.swapaxes(stack, 1, 2))
            assert child.shape == (m * K, d, d)
            for j, i in itertools.product(range(m), range(K)):
                err = np.linalg.norm(child[j * K + i] - (stack[j] @ P[i]).T)
                assert err <= 2 * gamma * np.linalg.norm(stack[j]) * np.linalg.norm(P[i])

    def test_previous_level_is_released_before_the_next_is_yielded(self):
        levels = bounds._iter_levels(level_family(2, 4, False), 6, BudgetCounter())
        _, P = next(levels)
        for _ in range(5):
            previous = weakref.ref(memory_owner(P))
            _, P = next(levels)
            assert previous() is None

    def test_levels_are_identical_for_one_and_two_blas_threads(self):
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", LEVEL_DIGEST], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]



def joined(fro):
    """The bounds of a :class:`bounds._Bounds` as one array, block by block."""
    return np.concatenate([fro.finish(raw) for _, raw in fro.blocks()])


def stream_from(monkeypatch, mset, n):
    """Set ``LEVEL_BYTES`` to hold m^(n-1) words of ``mset``: level n and
    the deeper levels stream (n = 1 streams every level from the identity)."""
    word = mset.stack()[0].nbytes
    monkeypatch.setattr(bounds, "LEVEL_BYTES", len(mset) ** (n - 1) * word)


# the exhaustive-level benchmark family
EXHAUSTIVE_FAMILY = MatrixSet(list(np.random.default_rng(0).standard_normal((2, 4, 4))))

# the streamed levels of a real 4 x 4 pair (levels 13-16 over level 12)
# and a complex 3 x 3 triple (levels 7-10 over level 6): single,
# duplicated, contiguous and random index sets re-formed by the lazy
# stack, printed as whether all equal the stored levels, with Gram bounds
# at or above every stored word's Frobenius norm and within 1e-6 of the
# level's largest, and one digest of the re-formed words
STREAM_DIGEST = """
import hashlib
import numpy as np
from jsrkit import bounds
rng = np.random.default_rng(11)
real = bounds.MatrixSet(list(rng.standard_normal((2, 4, 4))))
cplx = bounds.MatrixSet(list(rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))))
digest, same = hashlib.sha256(), True
for mset, k, n in ((real, 12, 16), (cplx, 6, 10)):
    word = mset.stack()[0].nbytes
    bounds.LEVEL_BYTES = len(mset) ** k * word
    stored = list(bounds._iter_levels(mset, n, bounds.BudgetCounter()))
    streamed = list(bounds._levels(mset, n, bounds.BudgetCounter()))
    for (_, P), (_, S, fro) in zip(stored[k:], streamed[k:]):
        size = len(P)
        same &= isinstance(S, bounds._StreamedLevel) and len(S) == size
        norms = bounds._frobenius_norms(P)
        fro = np.concatenate([fro.finish(raw) for _, raw in fro.blocks()])
        same &= bool((fro >= norms).all() and (fro - norms <= 1e-6 * norms.max()).all())
        for idx in ([size - 1], [5, 5, 0, 5], np.arange(size // 3, size // 3 + 999),
                    rng.integers(0, size, 3000), np.arange(size)[::-1]):
            got = S[np.asarray(idx)]
            same &= np.array_equal(got, P[np.asarray(idx)])
            digest.update(got.tobytes())
print(same, digest.hexdigest())
"""


class TestStreamedLevels:
    @pytest.mark.parametrize("start", [1, 4, 6])
    @pytest.mark.parametrize("mset", SCREEN_FAMILIES)
    def test_euclidean_rows_and_level_bounds_match_the_stored_levels(self, mset, start, monkeypatch):
        N = 9 if len(mset) == 2 else 7

        def run():
            return (
                sandwich(mset, N).rows,
                rho_plus_n(mset, N, ties=True),
                rho_minus_n(mset, N, ties=True),
            )

        stored = run()
        stream_from(monkeypatch, mset, start)
        assert run() == stored

    @pytest.mark.parametrize("mset", SCREEN_FAMILIES)
    def test_adapted_rows_match_the_stored_levels(self, mset, monkeypatch):
        norm = AdaptedNorm(mset, sandwich(mset, 4).best_lower(), 1)
        N = 8 if len(mset) == 2 else 6
        stored = sandwich(mset, N, norm=norm).rows
        stream_from(monkeypatch, mset, 4)
        assert sandwich(mset, N, norm=norm).rows == stored

    @pytest.mark.parametrize("stop", [4, 7])
    @pytest.mark.parametrize("mset", SCREEN_FAMILIES[:4])
    def test_truncation_at_a_streamed_level(self, mset, stop, monkeypatch):
        # the budget covers the levels before ``stop`` and one product short of it
        m = len(mset)
        limit = sum(m**k for k in range(1, stop + 1)) - 1

        def run():
            counter = BudgetCounter(limit)
            report = sandwich(mset, 9, budget=counter)
            return report.rows, report.truncated, counter.used

        stored = run()
        assert len(stored[0]) == stop - 1 and stored[1]
        stream_from(monkeypatch, mset, 4)
        assert run() == stored

    def test_streamed_stacks_have_the_stored_bits_for_one_and_two_blas_threads(self):
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", STREAM_DIGEST], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.split())
        assert outputs[0][0] == outputs[1][0] == "True"
        assert outputs[0][1] == outputs[1][1]

    def test_screening_batches_hold_at_most_level_bytes(self, monkeypatch):
        # every word ties, so every word is evaluated; 8-byte words, 256 per batch
        monkeypatch.setattr(bounds, "LEVEL_BYTES", 256 * 8)
        sizes = []

        def kernel(Q, cutoff):
            sizes.append(len(Q))
            return np.ones(len(Q))

        values = bounds._screened(np.ones(5000), 1.0, kernel, np.arange(5000))
        assert (values == 1.0).all() and sum(sizes) == 5000
        assert max(sizes) == 256

    def test_kernel_batches_fit_in_level_bytes(self, monkeypatch):
        calls = []
        for name in ("_euclidean_norms", "_spectral_radii"):
            monkeypatch.setattr(bounds, name, counting(getattr(bounds, name), calls))
        # the pruned search on a real 4 x 4 pair, in blocks of 4 parents
        pair = MatrixSet(list(np.random.default_rng(0).standard_normal((2, 4, 4))))
        monkeypatch.setattr(bounds, "LEVEL_BYTES", 4 * 2 * 128)
        pruned_bounds(pair, 0.01, max_depth=20, budget=BudgetCounter(2000))
        assert calls and max(Q.nbytes for Q in calls) <= bounds.LEVEL_BYTES
        # an adapted sandwich on a complex 3 x 3 triple, 256 words per batch
        rng = np.random.default_rng(1)
        triple = MatrixSet(
            [unitary(rng, 3, True) @ (np.eye(3) + 0.2 * rng.standard_normal((3, 3))) for _ in range(3)]
        )
        monkeypatch.setattr(bounds, "LEVEL_BYTES", 4 << 20)
        norm = AdaptedNorm(triple, sandwich(triple, 6).best_upper(), 3)
        assert norm.family_size > 1
        calls.clear()
        monkeypatch.setattr(bounds, "LEVEL_BYTES", 256 * 144)
        sandwich(triple, 7, norm=norm)
        assert calls and max(Q.nbytes for Q in calls) <= bounds.LEVEL_BYTES

    def test_sandwich_memory_stays_below_the_stored_level(self):
        # level 18 alone takes 32 MiB; the stored levels end at 4 MiB, and
        # no streamed word is formed before its screen passes it
        tracemalloc.start()
        try:
            report = sandwich(EXHAUSTIVE_FAMILY, 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.rows) == 18
        assert peak < 12 * 2**20

    def test_a_streamed_level_holds_no_array_per_word(self, monkeypatch):
        # 2**10 stored words: level 18 has 4 times the words of level 16,
        # but its screen reads its bounds one block at a time. The peak
        # runs from the generator forming a level through its screen
        stream_from(monkeypatch, EXHAUSTIVE_FAMILY, 11)
        levels = bounds._levels(EXHAUSTIVE_FAMILY, 18, BudgetCounter())
        peaks = {}
        tracemalloc.start()
        try:
            for n in range(1, 19):
                tracemalloc.reset_peak()
                _, P, fro = next(levels)
                bounds._level_bounds(P, fro, n, 2, both_kernels())
                peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(P, bounds._StreamedLevel)
        assert peaks[18] < 2 * peaks[16]


class Blocked(bounds._Bounds):
    """Bounds given whole, read in blocks of ``size`` words."""

    def __init__(self, values, size):
        super().__init__(values)
        self.size = size

    def blocks(self):
        for start in range(0, len(self.values), self.size):
            yield start, self.values[start:start + self.size]


class TestBlockEdges:
    @pytest.mark.parametrize("later", [None, np.inf, np.nan])
    @pytest.mark.parametrize("ties", [False, True])
    def test_blocks_screen_as_one(self, later, ties):
        # 1,000 words in blocks of 100, the largest bound on the last word
        # of the second block; ties put 100 equal bounds across the edge of
        # the seed's selection and of blocks 3 and 4
        rng = np.random.default_rng(3)
        values = rng.lognormal(0.0, 0.3, 1000)
        bound = values * (1.0 + rng.uniform(0.0, 0.5, 1000))
        bound[199] = 2.0 * bound.max()
        values[199] = bound[199]
        if ties:
            bound[250:350] = np.sort(bound)[-60]
            values[250:350] = 0.5 * bound[250:350]
        if later is not None:
            bound[745] = later
        kernels = [(1.0, lambda Q, cutoff: values[Q]), (3.0, lambda Q, cutoff: values[Q])]
        whole = bounds._screen_level(bound, kernels, RecordedStack(1000, []))
        blocked = bounds._screen_level(Blocked(bound, 100), kernels, RecordedStack(1000, []))
        for (idx, got), (want_idx, want) in zip(blocked, whole):
            assert np.array_equal(np.sort(idx), np.sort(want_idx))
            assert np.array_equal(got[np.argsort(idx)], want[np.argsort(want_idx)])
            assert 199 in idx and (later is None or 745 in idx)

    @pytest.mark.parametrize("mset", [EXHAUSTIVE_FAMILY, SCREEN_FAMILIES[3]])
    def test_raw_values_below_the_floor_finish_below_the_threshold(self, mset, monkeypatch):
        # the deepest level streams in blocks; thresholds at its bounds and
        # at the edge of the level maximum's slack
        stream_from(monkeypatch, mset, 5)
        for _, _, fro in bounds._levels(mset, 9, BudgetCounter()):
            pass
        assert isinstance(fro, bounds._GramBounds) and len(list(fro.blocks())) >= 3
        raw = np.concatenate([block.copy() for _, block in fro.blocks()])
        bound = fro.finish(raw)
        rng = np.random.default_rng(0)
        for threshold in np.concatenate([rng.choice(bound, 100), bound.max() * (1.0 - rng.uniform(0, 1e-7, 100))]):
            low = fro.floor(threshold)
            assert not (bound[raw < low] >= threshold).any()
            assert fro.finish(np.array([np.nextafter(low, -np.inf)]))[0] < threshold


class RecordedStack:
    """A stack of integer words that records the size of every read."""

    def __init__(self, size, reads):
        self.size, self.reads = size, reads

    def __len__(self):
        return self.size

    def __getitem__(self, idx):
        self.reads.append(len(idx))
        return np.asarray(idx)


class TestOneScreenForEveryKernel:
    @pytest.mark.parametrize("seed", [1, 16])
    def test_nan_value_screens_nothing_for_its_kernel_only(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.lognormal(0.0, 0.3, 500)
        poisoned = values.copy()
        poisoned[7] = np.nan
        bound = values * 1.01
        bound[7] = np.inf  # evaluated in the seed
        kernels = [(1.0, lambda idx, cutoff: poisoned[idx]), (1.0, lambda idx, cutoff: values[idx])]
        (nan_idx, nan_values), (idx, got) = bounds._screen_level(bound, kernels, np.arange(500))
        assert np.array_equal(np.sort(nan_idx), np.arange(500))
        assert np.array_equal(nan_values, poisoned[nan_idx], equal_nan=True)
        assert len(idx) < 250 and np.array_equal(got, values[idx])
        assert got.max() == values.max()

    def test_batches_for_both_kernels_hold_at_most_level_bytes(self, monkeypatch):
        # every word ties, so every word is evaluated by both kernels;
        # 8-byte words, 256 per batch, each batch read out of the stack once
        monkeypatch.setattr(bounds, "LEVEL_BYTES", 256 * 8)
        reads, sizes = [], []

        def kernel(Q, cutoff):
            sizes.append(len(Q))
            return np.ones(len(Q))

        found = bounds._screen_level(np.ones(5000), [(1.0, kernel), (2.0, kernel)], RecordedStack(5000, reads))
        for idx, values in found:
            assert np.array_equal(np.sort(idx), np.arange(5000)) and (values == 1.0).all()
        assert sum(reads) == 5000 and max(reads) == 256
        assert sum(sizes) == 2 * 5000 and max(sizes) == 256

    def test_each_kernel_takes_the_words_that_reach_its_own_threshold(self):
        # a kernel whose factor is 10 times looser keeps 10 times as many
        # bounds in reach: both see one batch, each only its own part of it
        bound = np.linspace(1.0, 0.0, 1000, endpoint=False)
        seen = {}

        def kernel(name):
            def values(Q, cutoff):
                seen.setdefault(name, []).append(Q)
                return bound[Q]
            return values

        bounds._screen_level(bound, [(1.0, kernel("tight")), (10.0, kernel("loose"))], RecordedStack(1000, []))
        tight, loose = (np.concatenate(seen[name]) for name in ("tight", "loose"))
        assert len(tight) == bounds.SCREEN_SEED
        assert (bound[loose] >= 0.1 * (1.0 - bounds.SCREEN_SLACK)).all()
        assert len(loose) == np.count_nonzero(bound >= 0.1 * (1.0 - bounds.SCREEN_SLACK))

    def test_a_nan_bound_keeps_its_word_for_every_kernel(self):
        # the NaN bound sorts last, behind words that one kernel screens out
        bound = np.linspace(1.0, 0.0, 1000, endpoint=False)
        bound[500] = np.nan
        values = np.nan_to_num(bound, nan=0.5)
        kernels = [(1.0, lambda Q, cutoff: values[Q]), (10.0, lambda Q, cutoff: values[Q])]
        for idx, got in bounds._screen_level(bound, kernels, RecordedStack(1000, [])):
            assert 500 in idx and np.array_equal(got, values[idx])


def plain_radii(Q):
    return np.abs(np.linalg.eigvals(Q)).max(axis=1)


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def unitary(rng, d, complex_entries):
    z = rng.standard_normal((d, d))
    if complex_entries:
        z = z + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(z)[0]


def near_defective_families():
    """Jordan-like generators ``[[1, t], [0, 1]]`` mixed with a rotation or a
    unitary phase: many products are near-defective, and ``eigvals`` moves
    their radii by about ``sqrt(2**-53) ||P||``."""
    rng = np.random.default_rng(7)
    q = unitary(rng, 2, True)
    jordan = np.array([[1.0, 1e6], [0.0, 1.0]])
    return [
        MatrixSet([jordan, rotation(0.7)]),
        MatrixSet([np.array([[1.0, 1e3], [0.0, 1.0]]), rotation(1.3), -jordan.T]),
        MatrixSet([q @ jordan @ q.conj().T, np.diag(np.exp([0.3j, 2.1j]))]),
    ]


def nilpotent_batch(d, rank, count, seed, complex_entries=False):
    """``X Y^H`` with ``Y^H X = 0``: nilpotent of index 2, whose computed
    radii are about ``sqrt(2**-53) ||P||`` while ``fl(P^2)`` is roundoff."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        X, Y = rng.standard_normal((2, d, rank))
        if complex_entries:
            X, Y = X + 1j * rng.standard_normal((d, rank)), Y + 1j * rng.standard_normal((d, rank))
        basis = np.linalg.qr(X)[0]
        out.append(X @ (Y - basis @ (basis.conj().T @ Y)).conj().T)
    return np.array(out)


def integer_nilpotents(d, count, seed):
    """Jordan blocks of size d conjugated by integer unimodular matrices:
    exact products, so ``P^d`` is exactly zero and only the slack bounds
    the computed radius."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        U = np.eye(d)
        for _ in range(int(rng.integers(1, 3 * d))):
            i, j = rng.choice(d, 2, replace=False)
            U[i] += rng.integers(-3, 4) * U[j]
        P = U @ np.diag(np.ones(d - 1), 1) @ np.round(np.linalg.inv(U))
        if np.abs(P).max() <= 2.0**20:
            out.append(P)
    return np.array(out)


POWER_FAMILIES = SCREEN_FAMILIES + near_defective_families()


def check_power_contract(Q, cutoff):
    """``_spectral_radii(Q, cutoff)`` against plain ``eigvals``: every
    evaluated radius has its bits, and every skipped one lies below
    ``(1 + TIE_RTOL) * max(cutoff, (1 - SCREEN_SLACK) * R)``, R the
    largest radius of the batch."""
    got, want = bounds._spectral_radii(Q, cutoff), plain_radii(Q)
    skipped = np.isneginf(got)
    top = (1.0 - bounds.SCREEN_SLACK) * want.max(initial=0.0)
    assert (want[skipped] < (1.0 + bounds.TIE_RTOL) * max(cutoff, top)).all()
    assert np.array_equal(got[~skipped], want[~skipped])
    return skipped


class TestGelfandPowerStage:
    @pytest.mark.parametrize("mset", POWER_FAMILIES)
    def test_skipped_radii_lie_below_the_cutoff(self, mset):
        for _, P in bounds._iter_levels(mset, 8, BudgetCounter()):
            radii = plain_radii(P)
            for cutoff in (-np.inf, 0.0, *np.quantile(radii, (0.3, 0.6, 0.9))):
                check_power_contract(P, float(cutoff))

    @pytest.mark.parametrize(
        "Q",
        [
            nilpotent_batch(3, 1, 300, seed=1),
            nilpotent_batch(3, 1, 300, seed=2, complex_entries=True),
            nilpotent_batch(4, 2, 200, seed=4),
            integer_nilpotents(3, 200, seed=5),
            integer_nilpotents(4, 200, seed=6),
        ],
    )
    def test_a_cutoff_just_below_a_radius_keeps_its_word(self, Q):
        # zero words fill half the batch: the first square removes them
        Q = np.concatenate([Q, np.zeros_like(Q)])
        radii = plain_radii(Q)
        # each word among 2 * POWER_MIN - 1 zero words, where its radius is
        # the batch maximum: only the stage's slack C_k keeps it
        zeros = np.zeros((2 * bounds.POWER_MIN - 1,) + Q.shape[1:], dtype=Q.dtype)
        for i in np.nonzero(radii > 0.0)[0]:
            cutoff = radii[i] / (1.0 + 2.0 * bounds.TIE_RTOL)
            check_power_contract(Q, cutoff)
            assert not check_power_contract(np.concatenate([Q[i:i + 1], zeros]), cutoff)[0]

    def test_radii_within_the_slack_of_the_batch_maximum_are_kept(self):
        # rank-one diagonal words, whose power bounds exceed their radii by
        # about 1e-14 relative, with radii 1e-14 apart: all lie within
        # SCREEN_SLACK of the maximum, so no chunk of eigvals may drop one
        radii = 1.0 - 1e-14 * np.arange(40)
        Q = np.zeros((40, 3, 3))
        Q[:, 0, 0] = radii
        Q = Q[np.random.default_rng(0).permutation(40)]
        for cutoff in (-np.inf, 0.5):
            assert not check_power_contract(Q, cutoff).any()

    def test_near_defective_radii_move_beyond_the_screen_slack(self):
        # what the slack C_k is for: word 0 of the level is a power of
        # q J q^H, whose spectral radius is exactly 1
        _, P = list(bounds._iter_levels(near_defective_families()[2], 6, BudgetCounter()))[-1]
        assert abs(plain_radii(P[:1])[0] - 1.0) > 1e3 * bounds.SCREEN_SLACK

    def test_stage_skips_most_of_the_radii_the_norm_screen_leaves(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda Q: calls.append(len(Q)) or eigvals(Q))
        # the base family of the benchmark's exhaustive-level workload
        mset = MatrixSet(list(np.random.default_rng(0).standard_normal((2, 4, 4))))
        staged = sandwich(mset, 14), sum(calls)
        calls.clear()
        monkeypatch.setattr(bounds, "POWER_MIN", math.inf)
        unstaged = sandwich(mset, 14), sum(calls)
        assert staged[0] == unstaged[0]
        assert staged[1] < unstaged[1] // 2

    def test_no_cutoff_is_plain_eigvals(self):
        # below POWER_MIN words; a larger batch keeps the tie window of its
        # maximum without a cutoff
        _, P = list(bounds._iter_levels(random_family(2, complex_entries=True), 6, BudgetCounter()))[-1]
        small = P[:bounds.POWER_MIN - 1]
        assert np.array_equal(bounds._spectral_radii(small, -np.inf), plain_radii(small))
        for cutoff in (-np.inf, 0.0):
            skipped = check_power_contract(P, cutoff)
            assert skipped.any()

    @pytest.mark.parametrize("mset", [EXHAUSTIVE_FAMILY] + SCREEN_FAMILIES[2:])
    def test_a_level_without_cutoff_evaluates_fewer_than_half_of_its_words(self, mset):
        n = 12 if len(mset) == 2 else 8
        _, P = list(bounds._iter_levels(mset, n, BudgetCounter()))[-1]
        got, want = bounds._spectral_radii(P, -np.inf), plain_radii(P)
        assert np.count_nonzero(~np.isneginf(got)) < len(P) // 2
        m = len(mset)
        every = np.arange(len(P))
        assert bounds._level_bound(got, every, n, m, True) == bounds._level_bound(want, every, n, m, True)

    def test_few_eigvals_words_and_one_selection_per_level(self, monkeypatch):
        # the exhaustive-level family at N=18: 1,081 eigvals words and two
        # argpartition selections per level before both kernels shared one
        # screen and the radius kernel ordered its eigvals, 317 words with
        # the stage's early stop, 266 with every word squared to P**8.
        # Levels 1-15 are stored, one block each; levels 16-18 stream in
        # blocks of 2**15 words, and a selection reads one block at most
        words, selections = [], []
        eigvals, argpartition = np.linalg.eigvals, np.argpartition
        monkeypatch.setattr(np.linalg, "eigvals", lambda Q: words.append(len(Q)) or eigvals(Q))
        monkeypatch.setattr(np, "argpartition", lambda a, k: selections.append(len(a)) or argpartition(a, k))
        assert len(sandwich(EXHAUSTIVE_FAMILY, 18).rows) == 18
        assert sum(words) <= 300
        assert selections[:15] == [2**n for n in range(1, 16)]
        assert max(selections[15:]) <= 2**15

    def test_empty_batch(self):
        assert bounds._spectral_radii(np.zeros((0, 3, 3)), 1.0).shape == (0,)

    @pytest.mark.parametrize(
        "survivors", [bounds.POWER_MIN - 1, bounds.POWER_MIN, 2 * bounds.POWER_MIN, 2 * bounds.POWER_MIN + 1]
    )
    def test_every_survivor_count_starts_with_one_chunk_of_power_min(self, survivors, monkeypatch):
        # with the cutoff -inf the stage keeps every word of the batch; with
        # a positive one it drops the POWER_MIN zero words put before it.
        # Below POWER_MIN words the batch goes to eigvals whole
        chunks = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda Q: chunks.append(len(Q)) or eigvals(Q))
        first = min(survivors, bounds.POWER_MIN)
        for mset in POWER_FAMILIES:
            _, P = list(bounds._iter_levels(mset, 6, BudgetCounter()))[-1]
            Q = P[:survivors]
            zeros = np.zeros((bounds.POWER_MIN,) + Q.shape[1:], dtype=Q.dtype)
            for batch, cutoff in ((Q, -np.inf), (np.concatenate([zeros, Q]), 1e-300)):
                chunks.clear()
                skipped = check_power_contract(batch, cutoff)
                assert chunks[0] == first
                assert skipped[:len(batch) - survivors].all()


# real and complex, m in {2, 3}, d in {2, ..., 5}
IDENTITY_FAMILIES = [
    seeded_family(100 + k, m, d, complex_entries)
    for k, (complex_entries, m, d) in enumerate(
        itertools.product((False, True), (2, 3), (2, 3, 4, 5))
    )
]


def screens_off(monkeypatch):
    """Switch off every screen: the norm and radius screens, the power
    stage and the pruned search's floor all take their cutoff from
    ``_screen_cutoff``."""
    monkeypatch.setattr(bounds, "_screen_cutoff", lambda best, factor: (0.0, 0.0))


def signed_zero_level():
    """Level 8 of the antidiagonal pair with the zero entries of every odd
    word negated: pairs of words equal in value and bound but not in bits."""
    _, P = list(bounds._iter_levels(antidiagonal_pair(), 8, BudgetCounter()))[-1]
    P = P.copy()
    P[1::2] = np.where(P[1::2] == 0.0, -0.0, P[1::2])
    return [(8, P)]


def family_levels(mset):
    return [(n, P) for n, P in bounds._iter_levels(mset, 8, BudgetCounter())]


# families whose products repeat: (name, levels)
REPEATED_LEVELS = [
    ("rank-one", lambda: family_levels(rank_one_pair())),
    ("antidiagonal", lambda: family_levels(antidiagonal_pair())),
    ("commuting-diagonal", lambda: family_levels(MatrixSet([np.diag([2.0, 0.5]), np.diag([0.5, 2.0])]))),
    ("zero-one", lambda: family_levels(MatrixSet([
        np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), np.array([[1, 1, 0], [0, 0, 0], [0, 0, 1]]),
    ]))),
    ("complex", lambda: family_levels(MatrixSet([np.diag([1j, -1]), np.array([[0, 1j], [1, 0]])]))),
    ("signed-zeros", signed_zero_level),
]


def counting(kernel, calls):
    def wrapped(Q, *args):
        calls.append(Q.copy())
        return kernel(Q, *args)

    return wrapped


class TestDistinctWordsOnce:
    @pytest.mark.parametrize("name,levels", REPEATED_LEVELS, ids=[n for n, _ in REPEATED_LEVELS])
    def test_kernels_see_each_distinct_word_once(self, name, levels, monkeypatch):
        levels = levels()
        want = [unscreened_level(P, n, 2, ties=True) for n, P in levels]
        calls = []
        for attr in ("_euclidean_norms", "_spectral_radii"):
            monkeypatch.setattr(bounds, attr, counting(getattr(bounds, attr), calls))

        def run():
            calls.clear()
            fro = bounds._frobenius_norms
            got = [bounds._level_bounds(P, fro(P), n, 2, both_kernels(), ties=True) for n, P in levels]
            return got, sum(len(Q) for Q in calls)

        got, once = run()
        assert got == want
        for Q in calls:
            assert len({q.tobytes() for q in Q}) == len(Q)
        # every word the screens pass, evaluated without grouping
        monkeypatch.setattr(bounds, "_once", lambda kernel, Q, bound, *args: kernel(Q, *args))
        got, every = run()
        assert got == want
        assert once < every / 2

    def test_signed_zeros_stay_apart(self):
        [(_, P)] = signed_zero_level()
        calls = []
        values = bounds._screened(bounds._frobenius_norms(P), 1.0, counting(EUCLIDEAN.matrix_norms, calls), P)
        seen = np.concatenate(calls)
        # two words of one value, apart only in the sign of their zeros
        assert len({q.tobytes() for q in seen}) > len({(q + 0.0).tobytes() for q in seen})
        evaluated = ~np.isneginf(values)
        assert np.array_equal(values[evaluated], bounds._euclidean_norms(P[evaluated]))

    @pytest.mark.parametrize("mset", [rank_one_pair(), antidiagonal_pair()], ids=["rank-one", "antidiagonal"])
    def test_kernels_see_each_distinct_word_once_on_a_streamed_level(self, mset, monkeypatch):
        # level 18 of a 2 x 2 pair takes 8 MiB: it streams at the real
        # LEVEL_BYTES, and its Gram bounds must keep the ties _once reads.
        # The stored level is formed whole by _iter_levels, which reads no
        # LEVEL_BYTES, so both screens cut the same batches
        calls = []
        for attr in ("_euclidean_norms", "_spectral_radii"):
            monkeypatch.setattr(bounds, attr, counting(getattr(bounds, attr), calls))

        def run(P, fro):
            calls.clear()
            got = bounds._level_bounds(P, fro, 18, 2, both_kernels())
            assert all(len({q.tobytes() for q in Q}) == len(Q) for Q in calls)
            return got, sum(len(Q) for Q in calls)

        for _, P, fro in bounds._levels(mset, 18, BudgetCounter()):
            pass
        assert isinstance(P, bounds._StreamedLevel)
        streamed = run(P, fro)
        for _, P in bounds._iter_levels(mset, 18, BudgetCounter()):
            pass
        assert run(P, bounds._frobenius_norms(P)) == streamed


class TestIdenticalToTheUnscreenedReference:
    @pytest.mark.parametrize("mset", IDENTITY_FAMILIES)
    def test_euclidean_sandwich_and_rho_minus(self, mset, monkeypatch):
        got = sandwich(mset, 10).rows, rho_minus_n(mset, 10, ties=True)
        screens_off(monkeypatch)
        assert got == (sandwich(mset, 10).rows, rho_minus_n(mset, 10, ties=True))

    @pytest.mark.parametrize("mset", IDENTITY_FAMILIES)
    def test_adapted_sandwich(self, mset, monkeypatch):
        norm = AdaptedNorm(mset, sandwich(mset, 4).best_lower(), 1)
        N = 10 if len(mset) == 2 else 7
        got = sandwich(mset, N, norm=norm).rows
        screens_off(monkeypatch)
        assert got == sandwich(mset, N, norm=norm).rows

    @pytest.mark.parametrize("mset", IDENTITY_FAMILIES)
    def test_pruned_bounds(self, mset, monkeypatch):
        def search():
            counter = BudgetCounter(20000)
            return pruned_bounds(mset, 0.02, max_depth=30, budget=counter), counter.used

        got = search()
        screens_off(monkeypatch)
        assert got == search()


# a seeded draw to scale to the edges of binary64
EDGE_DRAW = np.random.default_rng(0).standard_normal((2, 3, 3))


class TestCheckEnclosure:
    def test_crossed_pair_raises(self):
        with pytest.raises(bounds.InternalInvariantError, match="exceeds upper bound"):
            bounds._check_enclosure(2.0, 1.9, "at n=3")

    def test_roundoff_crossing_is_tolerated(self):
        bounds._check_enclosure(2.0, 2.0 - 1e-12, "at n=3")

    def test_underflowed_sandwich_raises(self):
        # the products of length 4 and more underflow to zero: the upper
        # value 0 must not pass under the lower value 1.1e-90, and the
        # input is at fault, as for overflow
        with pytest.raises(ValueError, match="products underflow binary64; scale the family"):
            sandwich(MatrixSet(2.0**-300 * EDGE_DRAW), 8)

    def test_crossing_above_the_underflow_threshold_stays_internal(self, monkeypatch):
        # a crossing at a level whose products are normal numbers is a fault
        mset = MatrixSet(EDGE_DRAW)
        radii = bounds._spectral_radii
        monkeypatch.setattr(bounds, "_spectral_radii", lambda P, cutoff: 4.0 * radii(P, cutoff))
        with pytest.raises(bounds.InternalInvariantError, match="at n=1"):
            sandwich(mset, 3)

    def test_underflowed_pruned_search_raises(self):
        with pytest.raises(bounds.InternalInvariantError, match="in the pruned search"):
            pruned_bounds(MatrixSet(2.0**-300 * EDGE_DRAW), 0.02 * 2.0**-300, max_depth=20)


class TestOverflow:
    @pytest.mark.parametrize(
        "run",
        [
            lambda mset: sandwich(mset, 8),
            lambda mset: rho_plus_n(mset, 8),
            lambda mset: rho_minus_n(mset, 8),
            lambda mset: pruned_bounds(mset, 0.02 * 2.0**300, max_depth=20),
        ],
        ids=["sandwich", "rho_plus_n", "rho_minus_n", "pruned_bounds"],
    )
    def test_overflowing_products_name_the_cause(self, run):
        # the products of length 4 overflow binary64
        with pytest.raises(ValueError, match="products overflow binary64; scale the family"):
            run(MatrixSet(2.0**300 * EDGE_DRAW))

    # (cutoff, words): eigvals directly for a batch below POWER_MIN, else
    # the Gelfand power stage first, with or without a cutoff
    RADIUS_PATHS = [(-np.inf, bounds.POWER_MIN), (1.0, bounds.POWER_MIN - 1), (1.0, bounds.POWER_MIN)]

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("cutoff, words", RADIUS_PATHS, ids=["no-cutoff", "small-batch", "power-stage"])
    def test_radius_kernel_names_an_overflowed_word(self, cutoff, words, entry):
        Q = np.tile(np.eye(3), (words, 1, 1))
        Q[words // 2, 0, 1] = entry
        with pytest.raises(ValueError, match="products overflow binary64; scale the family"):
            bounds._spectral_radii(Q, cutoff)

    @pytest.mark.parametrize("cutoff, words", RADIUS_PATHS, ids=["no-cutoff", "small-batch", "power-stage"])
    def test_radius_kernel_passes_on_other_eigvals_failures(self, cutoff, words, monkeypatch):
        def unconverged(Q):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", unconverged)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            bounds._spectral_radii(np.tile(np.eye(3), (words, 1, 1)), cutoff)

    # an entry above 2**1023, the largest power of two in binary64: its word
    # once scaled to zeros and read NaN; warnings fail the suite
    TOP = 1.5 * 2.0**1023

    @pytest.mark.parametrize(
        "value",
        [
            lambda mset: rho_plus_n(mset, 1).value,
            lambda mset: rho_minus_n(mset, 1).value,
            lambda mset: sandwich(mset, 1).rows[0].rho_plus,
            lambda mset: sandwich(mset, 1).rows[0].rho_minus,
            lambda mset: AdaptedNorm(mset, 1.0, 0).matrix_norm(mset[0]),
            lambda mset: bounds._spectral_radii(np.repeat(mset.stack(), bounds.POWER_MIN, axis=0), 1.0).max(),
        ],
        ids=["rho_plus_n", "rho_minus_n", "sandwich-plus", "sandwich-minus", "adapted-matrix-norm", "power-stage"],
    )
    def test_an_entry_above_the_largest_power_of_two_is_exact(self, value):
        assert value(MatrixSet([[[self.TOP, 0.0], [0.0, 1.0]]])) == self.TOP

    def test_scaling_caps_at_the_largest_power_of_two(self):
        Q = np.array([[[self.TOP, 0.0], [0.0, 1.0]], [[0.75, 0.0], [0.0, 0.5]]])
        S, scale = bounds._scaled(Q)
        assert scale.tolist() == [2.0**1023, 1.0]
        assert np.array_equal(S * scale[:, None, None], Q)
        assert (np.abs(S) < 2.0).all()


def scaled_frobenius(P):
    """``||P||_F`` per word, scaled first so that no square over- or underflows."""
    S, scale = bounds._scaled(P)
    return scale * bounds._frobenius_norms(S)


# families at the edges of binary64 and near-defective ones, with the
# depth to which their products neither overflow nor underflow
EDGE_FAMILIES = [(MatrixSet(2.0**300 * EDGE_DRAW), 3), (MatrixSet(2.0**-300 * EDGE_DRAW), 3)] + [
    (mset, 6) for mset in near_defective_families()
]


class TestStreamedLevelEdges:
    @pytest.mark.parametrize("start", [1, 2, 3])
    @pytest.mark.parametrize("mset, depth", EDGE_FAMILIES)
    def test_gram_bounds_dominate_the_re_formed_words(self, mset, depth, start, monkeypatch):
        stored = [P for _, P in bounds._iter_levels(mset, depth, BudgetCounter())]
        stream_from(monkeypatch, mset, start)
        levels = list(bounds._levels(mset, depth, BudgetCounter()))
        assert len(levels) == depth
        for (n, S, fro), P in zip(levels[start - 1:], stored[start - 1:]):
            assert isinstance(S, bounds._StreamedLevel)
            assert np.array_equal(S[np.arange(len(P))], P)
            assert (joined(fro) >= scaled_frobenius(P)).all()

    @pytest.mark.parametrize("start", [1, 3])
    @pytest.mark.parametrize("run", [lambda mset: sandwich(mset, 8), lambda mset: rho_minus_n(mset, 8)],
                             ids=["sandwich", "rho_minus_n"])
    def test_overflowing_products_name_the_cause(self, run, start, monkeypatch):
        # the products of length 4 overflow binary64
        mset = MatrixSet(2.0**300 * EDGE_DRAW)
        stream_from(monkeypatch, mset, start)
        with pytest.raises(ValueError, match="products overflow binary64; scale the family"):
            run(mset)

    @pytest.mark.parametrize("start", [1, 3])
    def test_underflowed_sandwich_raises(self, start, monkeypatch):
        mset = MatrixSet(2.0**-300 * EDGE_DRAW)
        stream_from(monkeypatch, mset, start)
        with pytest.raises(ValueError, match="products underflow binary64; scale the family"):
            sandwich(mset, 8)


def synthetic_report(gaps):
    rows = [
        BoundsRow(n, 2.0 + g, 2.0, 2.0, 2.0 + g, g, (0,), (0,))
        for n, g in enumerate(gaps, start=1)
    ]
    return BoundsReport(rows=rows, norm_label="euclidean")


class TestFitRate:
    def test_quadratic_gap(self):
        report = synthetic_report([n ** (-2.0) for n in range(1, 13)])
        fit = fit_rate(report, 0.5)
        assert fit.r_hat == pytest.approx(2.0, abs=1e-6)
        assert fit.r_squared > 1 - 1e-9

    def test_linear_gap_with_prefactor(self):
        report = synthetic_report([3.0 / n for n in range(1, 13)])
        fit = fit_rate(report, 0.5)
        assert fit.r_hat == pytest.approx(1.0, abs=1e-6)

    def test_rank_one_pair_rate_is_one(self):
        report = sandwich(rank_one_pair(), 12)
        fit = fit_rate(report, 0.5)
        assert fit.r_hat == pytest.approx(1.0, abs=0.1)

    def test_collapsed_gap_flags_convergence(self):
        report = synthetic_report([1e-15] * 12)
        fit = fit_rate(report, 0.9)
        assert fit.converged

    def test_short_tail_rejected(self):
        report = synthetic_report([1.0 / n for n in range(1, 5)])
        with pytest.raises(ValueError):
            fit_rate(report, 0.5)


class TestMatrixSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MatrixSet([])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(bounds.linalg.DimensionError):
            MatrixSet([np.eye(2), np.eye(3)])

    def test_callers_array_stays_writeable_and_apart(self):
        a = np.eye(2, dtype=complex)
        mset = MatrixSet([a])
        assert a.flags.writeable and not mset.matrices[0].flags.writeable
        a[0, 0] = 5.0
        assert mset.matrices[0][0, 0] == 1.0

    def test_scaled(self):
        E2 = rank_one_pair()
        half = E2.scaled(0.5)
        assert half.matrices[0] == pytest.approx(0.5 * E2.matrices[0])
        assert half.labels == E2.labels

    @pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan, 1e308])
    def test_scaled_refuses_a_factor_or_product_that_is_not_finite(self, factor):
        # inf times the zero entries is NaN and 1e308 times 4 overflows: each
        # raises one ValueError, and no RuntimeWarning, which the suite's
        # warning filter would turn into an error of its own
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            MatrixSet([[[4.0, 0.0], [0.0, 1.0]]]).scaled(factor)

    def test_stack_is_one_read_only_array_that_the_matrices_view(self):
        mset = rank_one_pair()
        stack = mset.stack()
        assert stack is mset.stack() and not stack.flags.writeable
        assert all(np.shares_memory(A, stack) for A in mset.matrices)

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from jsrkit import shiftspace
from jsrkit.gallery import golden_rotation_convergents
from jsrkit.shiftspace import (
    PeriodicOrbitSet,
    PeriodicWord,
    ShiftPoint,
    SturmianSystem,
    epsilon_of_n,
    periodic_approximant,
    shift_distance,
    sturmian_word,
)


def window(pword, half_width):
    return ShiftPoint.from_periodic(pword, half_width)


class TestShiftDistance:
    def test_identical_windows_give_bound(self):
        x = window(PeriodicWord([0]), 5)
        y = window(PeriodicWord([0]), 5)
        value, exact = shift_distance(x, y)
        assert value == pytest.approx(2.0**-5)
        assert not exact  # agreement reached the window edge

    def test_disagreement_at_radius_three(self):
        x = ShiftPoint((0,) * 11, 5)
        y = ShiftPoint((0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0), 5)  # differs at +3
        value, exact = shift_distance(x, y)
        assert exact
        assert value == pytest.approx(2.0**-2)

    def test_origin_disagreement_gives_two(self):
        # empty supremum: the distance convention tops out at 2
        x = window(PeriodicWord([0]), 3)
        y = window(PeriodicWord([1]), 3)
        value, exact = shift_distance(x, y)
        assert exact
        assert value == 2.0

    def test_symmetry(self):
        x = window(PeriodicWord([0, 1, 1]), 6)
        y = window(PeriodicWord([0, 1, 0]), 6)
        assert shift_distance(x, y) == shift_distance(y, x)

    def test_weak_triangle_inequality(self):
        words = [PeriodicWord(c) for c in ((0,), (1,), (0, 1), (0, 1, 1), (1, 0, 0))]
        points = [window(w, 8) for w in words]
        for x in points:
            for y in points:
                for z in points:
                    dxz = shift_distance(x, z)[0]
                    dxy = shift_distance(x, y)[0]
                    dyz = shift_distance(y, z)[0]
                    assert dxz <= 2 * max(dxy, dyz) + 1e-12


class TestSturmianWords:
    def test_golden_convergent_prefix(self):
        # floors of k*55/89 are 0,1,1,2,3,3,4,4 so the increments read
        # 0,1,0,1,1,0,1,0 (verified by hand)
        point = sturmian_word([Fraction(55, 89)] * 8, 0, 8)
        assert [point.symbol(i) for i in range(8)] == [0, 1, 0, 1, 1, 0, 1, 0]

    def test_half_gives_alternating(self):
        point = sturmian_word([Fraction(1, 2)] * 8, 0, 6)
        assert [point.symbol(i) for i in range(6)] == [0, 1, 0, 1, 0, 1]

    def test_fibonacci_word_from_complement_slope(self):
        # slope 34/89 with phase equal to the slope reproduces the
        # classical fixed point of 0 -> 01, 1 -> 0
        point = sturmian_word([Fraction(34, 89)] * 8, Fraction(34, 89), 13)
        assert [point.symbol(i) for i in range(13)] == [0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1]

    def test_balanced_factors(self):
        # any two equal-length factors carry one-counts differing by <= 1
        point = sturmian_word(golden_rotation_convergents(), 0, 400)
        symbols = [point.symbol(i) for i in range(400)]
        prefix = [0]
        for s in symbols:
            prefix.append(prefix[-1] + s)
        for length in range(1, 201):
            counts = [prefix[i + length] - prefix[i] for i in range(400 - length)]
            assert max(counts) - min(counts) <= 1

    def test_phase_wraps_into_unit_interval(self):
        a = sturmian_word([Fraction(2, 5)] * 8, Fraction(7, 5), 10)
        b = sturmian_word([Fraction(2, 5)] * 8, Fraction(2, 5), 10)
        assert a.symbols == b.symbols

    def test_rejects_slope_outside_unit_interval(self):
        with pytest.raises(ValueError):
            sturmian_word([Fraction(3, 2)], 0, 4)


class TestPeriodicApproximant:
    def test_period_two(self):
        system = SturmianSystem(golden_rotation_convergents())
        assert periodic_approximant(system, 0).cycle == (0, 1)

    def test_period_five(self):
        # floors of 3k/5: 0,1,1,2,3 so the block reads 0,1,0,1,1
        system = SturmianSystem(golden_rotation_convergents())
        assert periodic_approximant(system, 2).cycle == (0, 1, 0, 1, 1)

    def test_period_thirteen_block_count(self):
        system = SturmianSystem(golden_rotation_convergents())
        block = periodic_approximant(system, 4).cycle
        assert len(block) == 13
        assert sum(block) == 8  # one-count equals the numerator

    def test_blocks_are_balanced(self):
        system = SturmianSystem(golden_rotation_convergents())
        for k in range(3, 7):
            block = periodic_approximant(system, k).cycle * 3
            prefix = [0]
            for s in block:
                prefix.append(prefix[-1] + s)
            for length in range(1, len(block) // 2):
                counts = [prefix[i + length] - prefix[i] for i in range(len(block) - length)]
                assert max(counts) - min(counts) <= 1


class TestEpsilon:
    def test_fixed_point_target_is_reached(self):
        Z = PeriodicOrbitSet([PeriodicWord([0])])
        for n in (1, 2, 4):
            result = epsilon_of_n(Z, n)
            assert result.value == 0.0
            assert result.exact

    def test_two_cycle_needs_period_two(self):
        Z = PeriodicOrbitSet([PeriodicWord([0, 1])])
        at_one = epsilon_of_n(Z, 1)
        assert at_one.value == pytest.approx(1.0)
        assert at_one.exact
        at_two = epsilon_of_n(Z, 2)
        assert at_two.value == 0.0
        assert at_two.orbit.cycle in ((0, 1), (1, 0))

    def test_alphabet_comes_from_the_target(self):
        # the symbol 2 is no binary symbol; the fixed point 2^inf agrees
        # with a phase of the target at radius 1
        Z = PeriodicOrbitSet([PeriodicWord([2, 2, 2, 2, 0])])
        result = epsilon_of_n(Z, 1)
        assert result.value == 0.5
        assert result.orbit.cycle == (2,)
        assert result.exact

    def test_exhausted_window_is_an_upper_bound(self):
        # 0^inf agrees with a phase of 0^9 1 to radius 4: the radius-2
        # window of n = 1 runs out first, the radius-6 window of n = 3 does not
        Z = PeriodicOrbitSet([PeriodicWord([0] * 9 + [1])])
        at_one = epsilon_of_n(Z, 1)
        assert (at_one.value, at_one.exact) == (0.25, False)
        at_three = epsilon_of_n(Z, 3)
        assert (at_three.value, at_three.exact) == (2.0**-4, True)

    def test_per_n_column_is_monotone(self):
        Z = PeriodicOrbitSet([PeriodicWord([0, 1, 1])])
        result = epsilon_of_n(Z, 6)
        values = [v for _, v in result.per_n]
        assert values == sorted(values, reverse=True)

    def test_sturmian_values_are_flagged_upper_bounds(self):
        system = SturmianSystem(golden_rotation_convergents())
        result = epsilon_of_n(system, 8)
        assert not result.exact
        assert result.value < 0.01

    def test_sturmian_decay_is_geometric(self):
        system = SturmianSystem(golden_rotation_convergents())
        values = [epsilon_of_n(system, q).value for q in (5, 8, 13, 21)]
        for a, b in zip(values, values[1:]):
            assert b <= 0.5 * a

    def test_own_approximant_reaches_zero_beyond_finest_period(self):
        # n >= q_K = 55: the finest approximant is a candidate and equals the
        # surrogate target, so the value is 0, still an upper bound
        system = SturmianSystem(golden_rotation_convergents(8))
        result = epsilon_of_n(system, 60)
        assert (result.value, result.exact) == (0.0, False)
        assert result.orbit == periodic_approximant(system, 7)

    def test_system_requires_eight_convergents(self):
        with pytest.raises(ValueError):
            SturmianSystem([Fraction(1, 2), Fraction(2, 3)])


def brute_force_radius(target, point, max_radius):
    """Agreement radius by comparing symbol by symbol with every phase
    point of every word, each capped at the lcm of the two periods."""
    best = -1
    for word in target.words:
        cap = math.lcm(point.period, word.period)
        for k in range(word.period):
            z = word.rotated(k)
            m = -1
            if point.symbol(0) == z.symbol(0):
                m = 0
                while (
                    m < min(max_radius, cap)
                    and point.symbol(m + 1) == z.symbol(m + 1)
                    and point.symbol(-m - 1) == z.symbol(-m - 1)
                ):
                    m += 1
            if m >= cap:
                return math.inf
            best = max(best, m)
    return best


class TestAgreementRadius:
    def test_factor_windows_match_brute_force(self):
        # periodic targets over up to 4 symbols, and every tenth the
        # Sturmian target; some points are phases of the target.  Every
        # tenth other target uses symbols up to 300 that agree mod 256
        # (44 and 300, 0 and 256), which no one-byte encoding can tell apart
        rng = np.random.default_rng(16)
        sturmian = SturmianSystem(golden_rotation_convergents(8))
        wide = np.array([0, 44, 256, 300])
        reached_cap = 0
        for trial in range(300):
            alphabet = int(rng.integers(2, 5))
            symbols = wide if trial % 10 == 5 else np.arange(alphabet)

            def cycle(longest):
                """A random cycle over ``symbols`` of length below ``longest``."""
                return symbols[rng.integers(0, len(symbols), int(rng.integers(1, longest)))]

            if trial % 10 == 0:
                target = sturmian
            else:
                count = int(rng.integers(1, 4))
                target = PeriodicOrbitSet([cycle(10) for _ in range(count)])
            for _ in range(5):
                if rng.random() < 0.3:
                    word = target.words[int(rng.integers(len(target.words)))]
                    phase = word.rotated(int(rng.integers(word.period))).cycle
                    point = PeriodicWord(phase * int(rng.integers(1, 3)))
                else:
                    point = PeriodicWord(cycle(12))
                max_radius = int(rng.integers(0, 40))
                want = brute_force_radius(target, point, max_radius)
                assert target.agreement_radius(point, max_radius) == want
                reached_cap += want == math.inf
        assert reached_cap > 0

    def test_sturmian_target_is_its_finest_approximant(self):
        system = SturmianSystem(golden_rotation_convergents(8))
        assert system.words == [periodic_approximant(system, 7)]
        assert system.words[0].period == 55


class ProtocolOnlyTarget:
    """A target with the two members ``epsilon_of_n`` calls, and no other."""

    def __init__(self, target):
        self.agreement_radius = target.agreement_radius
        self.candidates = target.candidates


class FixedPointTarget:
    """The fixed point ``0^Z`` of the full 2-shift, with a stated ``exhaustive_to``."""

    def __init__(self, exhaustive_to):
        self.exhaustive_to = exhaustive_to

    def agreement_radius(self, point, max_radius):
        if set(point.cycle) == {0}:
            return math.inf
        m = -1
        while m < max_radius and point.symbol(m + 1) == 0 and point.symbol(-(m + 1)) == 0:
            m += 1
        return m

    def candidates(self, n):
        words = lambda k: [PeriodicWord(c) for c in itertools.product((0, 1), repeat=k)]
        return {k: words(k) for k in range(1, n + 1)}, self.exhaustive_to


class TestTargetProtocol:
    @pytest.mark.parametrize(
        "target,budget",
        [
            (PeriodicOrbitSet([PeriodicWord([0, 1, 1])]), 200_000),
            (PeriodicOrbitSet([PeriodicWord([2, 2, 2, 2, 0])]), 200_000),
            # budget-limited: periods beyond 3 are not enumerated
            (PeriodicOrbitSet([PeriodicWord([0, 0, 1]), PeriodicWord([1, 1, 0, 1])]), 14),
            (SturmianSystem(golden_rotation_convergents()), 200_000),
        ],
    )
    def test_protocol_members_suffice(self, target, budget, monkeypatch):
        monkeypatch.setattr(shiftspace, "_SEARCH_BUDGET", budget)
        for n in (1, 3, 6):
            want = epsilon_of_n(target, n)
            assert epsilon_of_n(ProtocolOnlyTarget(target), n) == want

    def test_exactness_follows_exhaustive_to(self):
        for n in (1, 4):
            exact = epsilon_of_n(FixedPointTarget(n), n)
            assert (exact.value, exact.orbit.cycle, exact.exact) == (0.0, (0,), True)
            assert exact.per_n == [(k, 0.0) for k in range(1, n + 1)]
            short = epsilon_of_n(FixedPointTarget(n - 1), n)
            assert (short.value, short.orbit.cycle, short.exact) == (0.0, (0,), False)


class TestPeriodicWord:
    def test_rotation_shifts_symbols(self):
        w = PeriodicWord([0, 1, 1])
        assert w.rotated(1).cycle == (1, 1, 0)
        assert w.rotated(-1).cycle == (1, 0, 1)
        for i in range(-6, 7):
            assert w.rotated(2).symbol(i) == w.symbol(i + 2)

    def test_prefix(self):
        assert PeriodicWord([0, 1]).prefix(5) == (0, 1, 0, 1, 0)

    def test_rejects_empty_cycle(self):
        with pytest.raises(ValueError):
            PeriodicWord([])

    def test_shift_point_origin_validation(self):
        with pytest.raises(ValueError):
            ShiftPoint((0, 1), 5)

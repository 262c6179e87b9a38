"""Shift-space substrate over finite alphabets.

Provides the symbolic metric d(x, y) = 2^(-m) with m the radius of
agreement around the origin, periodic words, mechanical (Sturmian)
binary words generated in exact rational arithmetic, and the best
achievable distance from a periodic orbit of bounded period to a fixed
invariant set.

Targets are finite unions of periodic orbits (:class:`PeriodicOrbitSet`).
The agreement radius of a point with one is the largest radius whose
window around the origin is a factor of one of its words, grown one
symbol on each side at a time and looked up as a substring of the
word's orbit, kept as one string of code points per word.  A Sturmian
target (:class:`SturmianSystem`) is the periodic-orbit set of its
finest approximant, with its own candidate orbits.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "PeriodicWord",
    "ShiftPoint",
    "shift_distance",
    "sturmian_word",
    "SturmianSystem",
    "PeriodicOrbitSet",
    "periodic_approximant",
    "EpsilonResult",
    "epsilon_of_n",
]


class PeriodicWord:
    """A bi-infinite periodic symbol sequence given by its repeating block."""

    def __init__(self, cycle):
        cycle = tuple(int(s) for s in cycle)
        if len(cycle) < 1:
            raise ValueError("cycle must have length at least 1")
        if any(s < 0 for s in cycle):
            raise ValueError("symbols must be non-negative indices")
        self.cycle = cycle

    @property
    def period(self):
        return len(self.cycle)

    def symbol(self, i):
        return self.cycle[i % len(self.cycle)]

    def prefix(self, n):
        """Symbols at positions 0..n-1."""
        return tuple(self.symbol(i) for i in range(n))

    def rotated(self, k):
        """The shifted point T^k x, whose symbol at i is x_{i+k}."""
        k %= len(self.cycle)
        # the symbols were validated when this word was made
        point = object.__new__(PeriodicWord)
        point.cycle = self.cycle[k:] + self.cycle[:k]
        return point

    def validate_for(self, mset):
        for s in self.cycle:
            if s >= len(mset):
                raise IndexError("cycle symbol %d out of range for a %d-matrix set" % (s, len(mset)))
        return self

    def __eq__(self, other):
        return isinstance(other, PeriodicWord) and self.cycle == other.cycle

    def __hash__(self):
        return hash(self.cycle)

    def __repr__(self):
        return "PeriodicWord(%r)" % (self.cycle,)


@dataclass(frozen=True)
class ShiftPoint:
    """A finite window onto a point of the full shift.

    ``symbols[origin]`` is the symbol at position 0; position i is
    available for -origin <= i < len(symbols) - origin.
    """

    symbols: tuple
    origin: int

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not 0 <= self.origin < len(self.symbols):
            raise ValueError("origin must lie inside the window")

    def symbol(self, i):
        j = self.origin + i
        if not 0 <= j < len(self.symbols):
            raise IndexError("position %d outside the window" % i)
        return self.symbols[j]

    def covered_radius(self):
        """Largest m with all positions |i| <= m inside the window."""
        return min(self.origin, len(self.symbols) - 1 - self.origin)

    @classmethod
    def from_periodic(cls, pword, half_width):
        sym = tuple(pword.symbol(i) for i in range(-half_width, half_width + 1))
        return cls(sym, half_width)


def shift_distance(x, y):
    """Symbolic distance 2^(-m), m the radius of agreement around 0.

    Returns ``(value, exact)``.  When the symbols at the origin already
    differ the supremum is empty (taken as -1) so the distance is 2 and
    exact.  When agreement persists to the edge of the shorter window the
    true distance can only be smaller, so the value is returned as an
    upper bound with ``exact=False``.
    """
    if x.symbol(0) != y.symbol(0):
        return 2.0, True
    radius = min(x.covered_radius(), y.covered_radius())
    for m in range(1, radius + 1):
        if x.symbol(m) != y.symbol(m) or x.symbol(-m) != y.symbol(-m):
            return 2.0 ** (-(m - 1)), True
    return 2.0 ** (-radius), False


def _mechanical_symbol(gamma, phase, i):
    return math.floor((i + 1) * gamma + phase) - math.floor(i * gamma + phase)


def sturmian_word(convergents, phase, length):
    """Binary rotation word s_i = floor((i+1)g + phi) - floor(i g + phi).

    ``g`` is taken from the finest convergent in ``convergents`` and all
    arithmetic is exact rational, so the floors are evaluated without
    rounding ambiguity.  The window covers positions ``0 .. length - 1``.
    """
    gamma = _as_fractions(convergents)[-1]
    phase = Fraction(phase)
    if not 0 <= phase < 1:
        phase %= 1
    return ShiftPoint(tuple(_mechanical_symbol(gamma, phase, i) for i in range(length)), 0)


def _as_fractions(convergents):
    out = [Fraction(c) for c in convergents]
    if not out:
        raise ValueError("need at least one convergent")
    for c in out:
        if not 0 < c < 1:
            raise ValueError("convergents must lie in (0, 1), got %s" % c)
    return out


# periods up to this are enumerated exhaustively for periodic targets
_EXHAUSTIVE_PERIOD_CAP = 14
# candidate words a target enumerates besides its own at most: the words
# of exhaustive periods, or the single-symbol flips of Sturmian approximants
_SEARCH_BUDGET = 200_000


class PeriodicOrbitSet:
    """A finite union of periodic orbits, used as the target set Z."""

    def __init__(self, pwords):
        pwords = [w if isinstance(w, PeriodicWord) else PeriodicWord(w) for w in pwords]
        if not pwords:
            raise ValueError("need at least one periodic word")
        self.words = pwords
        # per word, its orbit as one string of code points (see _orbit_text)
        self._texts = [""] * len(pwords)

    def _orbit_text(self, k, length):
        """At least ``length`` symbols of the orbit of word ``k``, one code
        point (``chr``) per symbol: a window is a factor of that orbit iff
        it is a substring once the text spans the period plus the window."""
        if len(self._texts[k]) < length:
            cycle = self.words[k].cycle
            self._texts[k] = "".join(map(chr, cycle * (1 + length // len(cycle))))
        return self._texts[k]

    def agreement_radius(self, point, max_radius):
        """Largest agreement radius ``m <= max_radius`` of a periodic point
        with any phase point of the set: the largest m whose window of
        radius m is a factor of one of the words.

        The window of radius m extends that of radius m - 1 by one symbol
        on each side.  Per word it grows at most to the lcm of the two
        periods, where agreement forces the point to be a phase point of
        that word: then the result is ``math.inf``.
        """
        best = -1
        for k, word in enumerate(self.words):
            cap = math.lcm(point.period, word.period)
            m, window = -1, chr(point.symbol(0))
            for radius in range(min(max_radius, cap) + 1):
                if window not in self._orbit_text(k, word.period + 2 * radius + 2):
                    break
                m = radius
                window = chr(point.symbol(-m - 1)) + window + chr(point.symbol(m + 1))
            if m >= cap:
                return math.inf
            best = max(best, m)
        return best

    def candidates(self, n):
        """Candidate periodic words keyed by period, and ``exhaustive_to``.

        Every word over the symbols ``0..a-1`` of each period k <= n,
        ``_EXHAUSTIVE_PERIOD_CAP`` and ``_SEARCH_BUDGET`` allow, ``a``
        the larger of 2 and one more than the largest symbol of the
        target's words, and the target's own words.  ``exhaustive_to`` is
        the largest k such that every period up to k is enumerated.
        """
        alphabet = max(2, 1 + max(max(w.cycle) for w in self.words))
        out = {}
        spent = exhaustive_to = 0
        for k in range(1, n + 1):
            count = alphabet**k
            if k <= _EXHAUSTIVE_PERIOD_CAP and spent + count <= _SEARCH_BUDGET:
                out[k] = [PeriodicWord(c) for c in itertools.product(range(alphabet), repeat=k)]
                spent += count
                if exhaustive_to == k - 1:
                    exhaustive_to = k
        # the target's own words are always candidates at their period
        for w in self.words:
            if w.period <= n:
                out.setdefault(w.period, []).append(w)
        return out, exhaustive_to


class SturmianSystem(PeriodicOrbitSet):
    """Orbit closure of binary rotation words, given by rational convergents.

    The irrational rotation number is represented by a list of at least
    eight continued-fraction convergents, and the system by the
    periodic-orbit set of the finest one's approximant.  Factors longer
    than that convergent's denominator are factors of the approximant
    orbit rather than of the ideal system, which keeps every distance
    computed against it a certified value for the surrogate.
    """

    def __init__(self, convergents):
        self.convergents = _as_fractions(convergents)
        if len(self.convergents) < 8:
            raise ValueError("need at least 8 convergents, got %d" % len(self.convergents))
        super().__init__([periodic_approximant(self, len(self.convergents) - 1)])

    def candidates(self, n):
        """Candidate periodic words keyed by period, and ``exhaustive_to``.

        The periodic approximant of every convergent with period <= n,
        each with its single-symbol flips while ``_SEARCH_BUDGET`` allows,
        and every binary word of each period up to min(n, 8) that no
        convergent covers.  ``exhaustive_to`` is 0, so eps(Z, n) is always
        an upper bound.
        """
        out = {}
        spent = 0
        for k, gamma in enumerate(self.convergents):
            q = gamma.denominator
            if q > n:
                continue
            base = periodic_approximant(self, k)
            cands = [base]
            # single-symbol flips around the approximant, budget permitting
            if spent + q <= _SEARCH_BUDGET:
                for j in range(q):
                    block = list(base.cycle)
                    block[j] = 1 - block[j]
                    cands.append(PeriodicWord(block))
                spent += q
            out.setdefault(q, []).extend(cands)
        # tiny periods not covered by any convergent: exhaustive
        for k in range(1, min(n, 8) + 1):
            if k not in out:
                out[k] = [PeriodicWord(c) for c in itertools.product(range(2), repeat=k)]
        return out, 0


def periodic_approximant(system, k):
    """Periodic mechanical word for the k-th convergent, phase 0.

    The block is s_i for i = 0..q_k-1 with rotation number p_k/q_k; its
    shift orbit consists of all rotations of this block.
    """
    gamma = system.convergents[k]
    q = gamma.denominator
    return PeriodicWord(
        [_mechanical_symbol(gamma, Fraction(0), i) for i in range(q)]
    )


def _orbit_max_distance(x, Z, half_width):
    """max over phases of dist(T^i x, Z), certified at this window width."""
    worst = 0.0
    exact = True
    for i in range(x.period):
        point = x.rotated(i)
        m = Z.agreement_radius(point, half_width)
        if m == math.inf:
            continue
        if m < 0:
            d = 2.0
        else:
            d = 2.0 ** (-m)
            if m >= half_width:
                exact = False  # window exhausted: d is only an upper bound
        worst = max(worst, d)
    return worst, exact


@dataclass
class EpsilonResult:
    """Best sup-distance to Z over periodic orbits of period <= n."""

    value: float
    exact: bool
    orbit: PeriodicWord
    period: int
    per_n: list = None


def epsilon_of_n(Z, n):
    """Best achievable orbit distance eps(Z, n) with its achieving orbit.

    ``Z`` is any target with ``agreement_radius(point, max_radius)`` and
    ``candidates(n)``, which returns the candidate periodic words keyed by
    period and ``exhaustive_to``, the largest period up to which every
    word is a candidate.  Agreement is sought up to radius 2n.  The value
    is exact when every period up to n is exhaustive and no window of that
    radius ran out; otherwise it is an upper bound (``exact=False``), as
    it always is for a :class:`SturmianSystem`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    half_width = 2 * n

    candidates, exhaustive_to = Z.candidates(n)
    per_n = []
    running = (math.inf, True, None)
    for k in range(1, n + 1):
        for x in candidates.get(k, ()):
            d, exact = _orbit_max_distance(x, Z, half_width)
            if d < running[0] or (d == running[0] and running[2] is None):
                running = (d, exact, x)
        per_n.append((k, running[0]))
    value, exact, orbit = running
    if orbit is None:
        raise ValueError("no candidate orbits of period <= %d" % n)
    return EpsilonResult(
        value=value,
        exact=bool(exact and exhaustive_to >= n),
        orbit=orbit,
        period=orbit.period,
        per_n=per_n,
    )

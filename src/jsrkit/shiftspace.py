"""Shift-space substrate over finite alphabets.

Provides the symbolic metric d(x, y) = 2^(-m) with m the radius of
agreement around the origin, periodic words, mechanical (Sturmian)
binary words generated in exact rational arithmetic, and the best
achievable distance from a periodic orbit of bounded period to a fixed
invariant set.
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
        r = len(self.cycle)
        k %= r
        return PeriodicWord(self.cycle[k:] + self.cycle[:k])

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


def sturmian_word(convergents, phase, length, origin=0):
    """Binary rotation word s_i = floor((i+1)g + phi) - floor(i g + phi).

    ``g`` is taken from the finest convergent in ``convergents`` and all
    arithmetic is exact rational, so the floors are evaluated without
    rounding ambiguity.  The window covers positions
    ``-origin .. length - 1 - origin``.
    """
    gamma = _as_fractions(convergents)[-1]
    phase = Fraction(phase)
    if not 0 <= phase < 1:
        phase %= 1
    symbols = tuple(
        _mechanical_symbol(gamma, phase, i) for i in range(-origin, length - origin)
    )
    return ShiftPoint(symbols, origin)


def _as_fractions(convergents):
    out = []
    for c in convergents:
        if isinstance(c, Fraction):
            out.append(c)
        elif isinstance(c, (tuple, list)) and len(c) == 2:
            out.append(Fraction(int(c[0]), int(c[1])))
        elif isinstance(c, str):
            p, q = c.split("/")
            out.append(Fraction(int(p), int(q)))
        else:
            out.append(Fraction(c))
    if not out:
        raise ValueError("need at least one convergent")
    for c in out:
        if not 0 < c < 1:
            raise ValueError("convergents must lie in (0, 1), got %s" % c)
    return out


class SturmianSystem:
    """Orbit closure of binary rotation words, given by rational convergents.

    The irrational rotation number is represented by a list of at least
    eight continued-fraction convergents; factor dictionaries are
    generated exactly from the finest one.  Factors longer than that
    convergent's denominator are factors of the approximant orbit rather
    than of the ideal system, which keeps every distance computed against
    the dictionary a certified value for the surrogate.
    """

    kind = "sturmian"

    def __init__(self, convergents):
        self.convergents = _as_fractions(convergents)
        if len(self.convergents) < 8:
            raise ValueError("need at least 8 convergents, got %d" % len(self.convergents))
        self._factors = {}
        q = self.convergents[-1].denominator
        self._block = tuple(
            _mechanical_symbol(self.convergents[-1], Fraction(0), i) for i in range(q)
        )

    def periods(self):
        return [c.denominator for c in self.convergents]

    def factor_set(self, length):
        """All length-``length`` windows of the finest approximant orbit."""
        if length not in self._factors:
            q = len(self._block)
            doubled = self._block * (2 + length // q)
            self._factors[length] = frozenset(
                tuple(doubled[j : j + length]) for j in range(q)
            )
        return self._factors[length]

    def agreement_radius(self, point, max_radius):
        """Largest m <= max_radius with the window of radius m a factor."""
        sym0 = point.symbol(0)
        if (sym0,) not in self.factor_set(1):
            return -1
        best = 0
        for m in range(1, max_radius + 1):
            window = tuple(point.symbol(i) for i in range(-m, m + 1))
            if window in self.factor_set(2 * m + 1):
                best = m
            else:
                break
        return best


class PeriodicOrbitSet:
    """A finite union of periodic orbits, used as the target set Z."""

    kind = "periodic-orbit-set"

    def __init__(self, pwords):
        pwords = [w if isinstance(w, PeriodicWord) else PeriodicWord(w) for w in pwords]
        if not pwords:
            raise ValueError("need at least one periodic word")
        self.words = pwords
        self.phases = [w.rotated(k) for w in pwords for k in range(w.period)]

    def agreement_radius(self, point, max_radius):
        """Largest agreement radius with any phase point of the set.

        ``math.inf`` signals that the point provably equals a phase point
        (agreement over a full common period).
        """
        best = -1
        for z in self.phases:
            cap = _identity_radius(point, z)
            radius = min(max_radius, cap)
            m = -1
            if point.symbol(0) == z.symbol(0):
                m = 0
                while m < radius and point.symbol(m + 1) == z.symbol(m + 1) and point.symbol(-(m + 1)) == z.symbol(-(m + 1)):
                    m += 1
            if m >= cap:
                return math.inf
            best = max(best, m)
        return best


def _identity_radius(x, z):
    """Agreement beyond this radius forces two periodic points to be equal."""
    return math.lcm(x.period, z.period)


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


# periods up to this are enumerated exhaustively for periodic targets
_EXHAUSTIVE_PERIOD_CAP = 14


def epsilon_of_n(Z, n, search_budget=200_000, half_width=None):
    """Best achievable orbit distance eps(Z, n) with its achieving orbit.

    For a :class:`PeriodicOrbitSet` the value is exact while exhaustive
    enumeration of candidate periods stays within ``search_budget``; the
    enumeration runs over the symbols ``0..a-1``, ``a`` the larger of 2
    and one more than the largest symbol of the target's words.  For
    a :class:`SturmianSystem` the candidates are the periodic
    approximants of every convergent with period <= n plus a single-flip
    local search, and the result is a certified upper bound (flagged via
    ``exact=False``).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if half_width is None:
        half_width = 2 * n

    candidates = _candidate_orbits(Z, n, search_budget)
    best = None
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
    all_exhaustive = isinstance(Z, PeriodicOrbitSet) and candidates.get("exhaustive_to", 0) >= n
    return EpsilonResult(
        value=value,
        exact=bool(exact and all_exhaustive),
        orbit=orbit,
        period=orbit.period,
        per_n=per_n,
    )


def _candidate_orbits(Z, n, search_budget):
    """Candidate periodic words keyed by period, deterministic order."""
    out = {}
    spent = 0
    if isinstance(Z, PeriodicOrbitSet):
        alphabet = max(2, 1 + max(max(w.cycle) for w in Z.words))
        exhaustive_to = 0
        for k in range(1, n + 1):
            count = alphabet**k
            if k <= _EXHAUSTIVE_PERIOD_CAP and spent + count <= search_budget:
                out[k] = [PeriodicWord(c) for c in itertools.product(range(alphabet), repeat=k)]
                spent += count
                if exhaustive_to == k - 1:
                    exhaustive_to = k
        # the target's own words are always candidates at their period
        for w in Z.words:
            if w.period <= n:
                out.setdefault(w.period, []).append(w)
        out["exhaustive_to"] = exhaustive_to
        return out
    if isinstance(Z, SturmianSystem):
        for k, gamma in enumerate(Z.convergents):
            q = gamma.denominator
            if q > n:
                continue
            base = periodic_approximant(Z, k)
            cands = [base]
            # single-symbol flips around the approximant, budget permitting
            if spent + q <= search_budget:
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
        return out
    raise TypeError("Z must be a PeriodicOrbitSet or SturmianSystem")

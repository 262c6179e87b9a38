"""Exact growth rates on finite weighted digraphs.

The maximum cycle mean of a finite graph equals the limit of the best
average weight of length-n paths; on a finite subshift with a locally
constant potential these are the two sides of the uniform ergodic
averaging identity.  The cycle mean is computed exactly (Karp's dynamic
program in rational arithmetic) with a witnessing cycle read off the
same table; path averages come from the same max-plus walk step in
floats.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "WeightedGraph",
    "NoCycleError",
    "NoPathError",
    "CycleMean",
    "max_cycle_mean",
    "path_max_average",
    "path_max_totals",
]


class NoCycleError(ValueError):
    pass


class NoPathError(ValueError):
    pass


class WeightedGraph:
    """A finite directed graph with real edge weights."""

    def __init__(self, vertices):
        if vertices < 1:
            raise ValueError("need at least one vertex")
        self.n = int(vertices)
        self.edges = []  # (u, v, weight)

    def add_edge(self, u, v, weight):
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexError("edge endpoints out of range")
        w = float(weight)
        if not math.isfinite(w):
            raise ValueError("edge weights must be finite")
        self.edges.append((u, v, w))
        return self


def _walk_step(edges, best):
    """One edge more, in max-plus arithmetic.

    ``best[u]`` is the best total of a walk into u (None for no walk).
    Returns ``(row, back)``: ``row[v]`` is the best total of a walk one
    edge longer into v, None where no walk arrives, and ``back[v]`` the
    vertex that walk came from; of equal totals the first edge wins.
    """
    row, back = [None] * len(best), [None] * len(best)
    for u, v, w in edges:
        if best[u] is not None:
            cand = best[u] + w
            if row[v] is None or cand > row[v]:
                row[v], back[v] = cand, u
    return row, back


@dataclass
class CycleMean:
    value: float
    mean: Fraction
    cycle: list  # vertices, cycle[0] == cycle[-1]


def max_cycle_mean(G):
    """Exact maximum over directed cycles of mean edge weight.

    Karp's recurrence in rational arithmetic, with walks starting at
    every vertex: ``D[k][v]`` is the best total weight of a k-edge walk
    into ``v`` (``D[0][v] = 0``), and with ``n`` vertices the maximum
    cycle mean is

        lambda* = max_v min_{k<n} (D[n][v] - D[k][v]) / (n - k)

    over the vertices ``v`` that an n-edge walk reaches.  Each table
    entry keeps the vertex it came from, so the best n-edge walk into
    the maximising vertex ``v*`` can be traced back; the first vertex
    repeat met on the way closes a simple cycle, the witness.  Any cycle
    C on that walk has mean lambda*: removing C leaves an (n - |C|)-edge
    walk into ``v*`` of weight ``D[n][v*] - w(C) <= D[n-|C|][v*]``, so
    ``w(C) >= D[n][v*] - D[n-|C|][v*] >= |C| lambda*`` by the min
    condition, and no cycle has a mean above lambda*.

    Returns a :class:`CycleMean` carrying the float value, the exact
    rational mean, and the witnessing cycle (closed vertex list).
    Raises :class:`NoCycleError` on acyclic graphs, the graphs without
    an n-edge walk.
    """
    n = G.n
    edges = [(u, v, Fraction(w)) for u, v, w in G.edges]
    D = [[Fraction(0)] * n]
    pred = [None]
    for _ in range(n):
        row, back = _walk_step(edges, D[-1])
        D.append(row)
        pred.append(back)
    best = top = None
    for v in range(n):
        if D[n][v] is not None:
            # an n-edge walk into v has a k-edge suffix: every D[k][v] exists
            mean = min((D[n][v] - D[k][v]) / (n - k) for k in range(n))
            if best is None or mean > best:
                best, top = mean, v
    if best is None:
        raise NoCycleError("graph has no directed cycle")
    walk = [top]  # the best n-edge walk into top, backwards
    while walk.count(walk[-1]) == 1:
        walk.append(pred[n + 1 - len(walk)][walk[-1]])
    cycle = walk[walk.index(walk[-1]):][::-1]
    return CycleMean(value=float(best), mean=best, cycle=cycle)


def path_max_totals(G, n):
    """Best total weight of a k-edge walk for every k = 0..n; ``-inf``
    for a length that no walk has."""
    if n < 0:
        raise ValueError("n must be non-negative")
    best = [0.0] * G.n
    totals = [0.0]
    for _ in range(n):
        best, _ = _walk_step(G.edges, best)
        totals.append(max((t for t in best if t is not None), default=-math.inf))
    return totals


def path_max_average(G, n):
    """Largest average weight over walks with exactly ``n`` edges."""
    if n < 1:
        raise ValueError("n must be at least 1")
    total = path_max_totals(G, n)[n]
    if total == -math.inf:
        raise NoPathError("no walk of length %d exists" % n)
    return total / n

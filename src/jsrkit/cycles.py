"""Exact growth rates on finite weighted digraphs.

The maximum cycle mean of a finite graph equals the limit of the best
average weight of length-n paths; on a finite subshift with a locally
constant potential these are the two sides of the uniform ergodic
averaging identity.  The cycle mean is computed exactly (Karp's dynamic
program in rational arithmetic, per strongly connected component) with a
witnessing cycle; path averages come from the straightforward
longest-path recursion.
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

NEG_INF = float("-inf")


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
        self._out = [[] for _ in range(self.n)]

    def add_edge(self, u, v, weight):
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexError("edge endpoints out of range")
        w = float(weight)
        if not math.isfinite(w):
            raise ValueError("edge weights must be finite")
        self._out[u].append((v, w))
        self.edges.append((u, v, w))
        return self

    def out_edges(self, u):
        return self._out[u]


def _strong_components(G):
    """Tarjan's algorithm, iterative; returns a list of vertex lists."""
    index = [None] * G.n
    low = [0] * G.n
    on_stack = [False] * G.n
    stack, comps = [], []
    counter = [0]

    for root in range(G.n):
        if index[root] is not None:
            continue
        work = [(root, iter(G.out_edges(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w, _ in it:
                if index[w] is None:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(G.out_edges(w))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


@dataclass
class CycleMean:
    value: float
    mean: Fraction
    cycle: list  # vertices, cycle[0] == cycle[-1]


def _karp_component(G, comp):
    """Karp's recurrence on one strongly connected component, exact."""
    pos = {v: i for i, v in enumerate(comp)}
    edges = [
        (pos[u], pos[v], Fraction(w))
        for u, v, w in G.edges
        if u in pos and v in pos
    ]
    if not edges:
        return None
    n = len(comp)
    source = 0
    D = [[None] * n for _ in range(n + 1)]
    D[0][source] = Fraction(0)
    for k in range(1, n + 1):
        row = D[k]
        prev = D[k - 1]
        for u, v, w in edges:
            if prev[u] is None:
                continue
            cand = prev[u] + w
            if row[v] is None or cand > row[v]:
                row[v] = cand
    best = None
    for v in range(n):
        if D[n][v] is None:
            continue
        worst = None
        for k in range(n):
            if D[k][v] is None:
                continue
            ratio = (D[n][v] - D[k][v]) / (n - k)
            if worst is None or ratio < worst:
                worst = ratio
        if worst is not None and (best is None or worst > best):
            best = worst
    return best


def _zero_cycle_witness(G, comp, mean):
    """A cycle of mean exactly ``mean`` inside ``comp``, via reweighting.

    After subtracting the mean, every cycle has non-positive weight and
    some cycle has weight zero; max-plus powers of the reweighted
    adjacency matrix locate the first zero diagonal entry, whose walk is
    recovered by backtracking.
    """
    pos = {v: i for i, v in enumerate(comp)}
    n = len(comp)
    W = [[None] * n for _ in range(n)]
    for u, v, w in G.edges:
        if u in pos and v in pos:
            i, j = pos[u], pos[v]
            shifted = Fraction(w) - mean
            if W[i][j] is None or shifted > W[i][j]:
                W[i][j] = shifted

    def maxplus_mul(A, B):
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for mid in range(n):
                if A[i][mid] is None:
                    continue
                for j in range(n):
                    if B[mid][j] is None:
                        continue
                    cand = A[i][mid] + B[mid][j]
                    if out[i][j] is None or cand > out[i][j]:
                        out[i][j] = cand
        return out

    powers = [None, W]
    for length in range(1, n + 1):
        if length >= 2:
            powers.append(maxplus_mul(powers[length - 1], W))
        P = powers[length]
        start = next((i for i in range(n) if P[i][i] == 0), None)
        if start is not None:
            walk = _backtrack_walk(powers, W, start, start, length, n)
            return [comp[i] for i in walk]
    raise InternalWitnessError("no zero-mean cycle found after reweighting")


class InternalWitnessError(RuntimeError):
    pass


def _backtrack_walk(powers, W, i, j, length, n):
    """Vertex sequence of a maximal path realising powers[length][i][j]."""
    if length == 1:
        return [i, j]
    target = powers[length][i][j]
    for mid in range(n):
        left = powers[length - 1][i][mid]
        if left is None or W[mid][j] is None:
            continue
        if left + W[mid][j] == target:
            return _backtrack_walk(powers, W, i, mid, length - 1, n) + [j]
    raise InternalWitnessError("backtracking lost the optimal walk")


def max_cycle_mean(G):
    """Exact maximum over directed cycles of mean edge weight.

    Returns a :class:`CycleMean` carrying the float value, the exact
    rational mean, and a witnessing cycle (closed vertex list).  Raises
    :class:`NoCycleError` on acyclic graphs.
    """
    best = None
    best_comp = None
    for comp in _strong_components(G):
        nontrivial = len(comp) > 1 or any(
            u == v == comp[0] for u, v, _ in G.edges
        )
        if not nontrivial:
            continue
        mean = _karp_component(G, comp)
        if mean is None:
            continue
        if best is None or mean > best:
            best, best_comp = mean, comp
    if best is None:
        raise NoCycleError("graph has no directed cycle")
    cycle = _zero_cycle_witness(G, best_comp, best)
    return CycleMean(value=float(best), mean=best, cycle=cycle)


def path_max_totals(G, n):
    """Best total weight of a k-edge walk for every k = 0..n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    best = [0.0] * G.n
    totals = [0.0]
    for _ in range(n):
        nxt = [NEG_INF] * G.n
        for u, v, w in G.edges:
            if best[u] > NEG_INF:
                cand = best[u] + w
                if cand > nxt[v]:
                    nxt[v] = cand
        best = nxt
        totals.append(max(best))
    return totals


def path_max_average(G, n):
    """Largest average weight over walks with exactly ``n`` edges."""
    if n < 1:
        raise ValueError("n must be at least 1")
    total = path_max_totals(G, n)[n]
    if total == NEG_INF:
        raise NoPathError("no walk of length %d exists" % n)
    return total / n

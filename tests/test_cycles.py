from fractions import Fraction

import numpy as np
import pytest

from jsrkit.cycles import (
    NoCycleError,
    NoPathError,
    WeightedGraph,
    max_cycle_mean,
    path_max_average,
    path_max_totals,
)


def two_cycle_with_loop():
    G = WeightedGraph(2)
    G.add_edge(0, 1, 1.0)
    G.add_edge(1, 0, 3.0)
    G.add_edge(0, 0, 1.5)
    return G


def triangle():
    G = WeightedGraph(3)
    G.add_edge(0, 1, 0.0)
    G.add_edge(1, 2, 0.0)
    G.add_edge(2, 0, 6.0)
    return G


def simple_cycle_means(G):
    """Independent oracle: enumerate every simple cycle directly."""
    best_weight = {}
    for u, v, w in G.edges:
        key = (u, v)
        if key not in best_weight or w > best_weight[key]:
            best_weight[key] = w
    means = []

    def extend(path):
        u = path[-1]
        for v in range(G.n):
            if (u, v) not in best_weight:
                continue
            if v == path[0]:
                total = sum(
                    Fraction(best_weight[(a, b)]) for a, b in zip(path, path[1:] + [v])
                )
                means.append(total / len(path))
            elif v > path[0] and v not in path:
                extend(path + [v])

    for start in range(G.n):
        extend([start])
    return means


class TestMaxCycleMean:
    def test_self_loop(self):
        G = WeightedGraph(1).add_edge(0, 0, 3.0)
        result = max_cycle_mean(G)
        assert result.value == 3.0
        assert result.cycle == [0, 0]

    def test_two_cycle_beats_loop(self):
        result = max_cycle_mean(two_cycle_with_loop())
        assert result.mean == Fraction(2)
        assert set(result.cycle) == {0, 1}

    def test_triangle(self):
        result = max_cycle_mean(triangle())
        assert result.mean == Fraction(2)
        assert len(result.cycle) == 4

    def test_acyclic_raises(self):
        G = WeightedGraph(3)
        G.add_edge(0, 1, 1.0)
        G.add_edge(1, 2, 1.0)
        with pytest.raises(NoCycleError):
            max_cycle_mean(G)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            G = WeightedGraph(n)
            for u in range(n):
                for v in range(n):
                    if rng.random() < 0.4:
                        G.add_edge(u, v, int(rng.integers(-10, 11)))
            G.add_edge(0, 0, int(rng.integers(-10, 11)))  # guarantee a cycle
            oracle = max(simple_cycle_means(G))
            result = max_cycle_mean(G)
            assert result.mean == oracle

    def test_witness_cycle_realises_the_mean(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            G = WeightedGraph(n)
            for u in range(n):
                for v in range(n):
                    if rng.random() < 0.5:
                        G.add_edge(u, v, int(rng.integers(-5, 6)))
            G.add_edge(n - 1, 0, 1)
            G.add_edge(0, n - 1, 1)
            result = max_cycle_mean(G)
            best = {}
            for u, v, w in G.edges:
                best[(u, v)] = max(best.get((u, v), -np.inf), w)
            cycle = result.cycle
            assert cycle[0] == cycle[-1]
            assert len(set(cycle[:-1])) == len(cycle) - 1  # simple
            total = sum(best[(a, b)] for a, b in zip(cycle, cycle[1:]))
            assert Fraction(total) / (len(cycle) - 1) == result.mean

    def test_best_cycle_unreachable_from_vertex_zero(self):
        # 0 -> 0 has mean 1; the 2-cycle on {2, 3} reaches 0 through 1 but
        # not back, and its heavier parallel edge 2 -> 3 lifts its mean
        # from 1/2 to 3
        G = WeightedGraph(4)
        G.add_edge(0, 0, 1.0)
        G.add_edge(2, 3, 0.0)
        G.add_edge(2, 3, 5.0)
        G.add_edge(3, 2, 1.0)
        G.add_edge(3, 1, 2.0)
        G.add_edge(1, 0, -1.0)
        result = max_cycle_mean(G)
        assert result.mean == Fraction(3)
        assert result.cycle in ([2, 3, 2], [3, 2, 3])


class TestPathMaxAverage:
    def test_self_loop(self):
        G = WeightedGraph(1).add_edge(0, 0, 3.0)
        for n in (1, 5, 50):
            assert path_max_average(G, n) == 3.0

    def test_two_cycle_with_loop_exhaustive(self):
        # independent oracle: enumerate every 4-step walk; the best one is
        # 3 + 1.5 + 1 + 3 sandwiching the self-loop between cycle edges
        G = two_cycle_with_loop()
        oracle = brute_force_walk_average(G, 4)
        assert oracle == pytest.approx(8.5 / 4)
        assert path_max_average(G, 4) == pytest.approx(oracle)

    def test_triangle(self):
        assert path_max_average(triangle(), 3) == pytest.approx(2.0)

    def test_no_walk_raises(self):
        G = WeightedGraph(2).add_edge(0, 1, 1.0)
        with pytest.raises(NoPathError):
            path_max_average(G, 2)

    def test_dominates_cycle_mean_and_converges(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            G = WeightedGraph(n)
            for u in range(n):
                for v in range(n):
                    if rng.random() < 0.4:
                        G.add_edge(u, v, int(rng.integers(-10, 11)))
            G.add_edge(0, 0, int(rng.integers(-10, 11)))
            mcm = max_cycle_mean(G)
            w_max = max(abs(w) for _, _, w in G.edges)
            for length in (3, 10, 40):
                avg = path_max_average(G, length)
                assert avg >= mcm.value - 1e-9
                assert abs(avg - mcm.value) <= 2 * w_max * G.n / length + 1e-9

    def test_totals_table_matches_averages(self):
        G = two_cycle_with_loop()
        totals = path_max_totals(G, 6)
        for n in range(1, 7):
            assert totals[n] / n == pytest.approx(path_max_average(G, n))


def brute_force_walk_average(G, n):
    adj = {}
    for u, v, w in G.edges:
        adj.setdefault(u, []).append((v, w))
    best = -np.inf

    def walk(u, steps, total):
        nonlocal best
        if steps == n:
            best = max(best, total)
            return
        for v, w in adj.get(u, []):
            walk(v, steps + 1, total + w)

    for start in range(G.n):
        walk(start, 0, 0.0)
    return best / n


class TestWeightedGraph:
    def test_rejects_bad_endpoints(self):
        with pytest.raises(IndexError):
            WeightedGraph(2).add_edge(0, 5, 1.0)

    def test_rejects_non_finite_weight(self):
        with pytest.raises(ValueError):
            WeightedGraph(1).add_edge(0, 0, float("inf"))

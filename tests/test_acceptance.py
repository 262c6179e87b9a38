"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines; any failure carries the measured numbers in its assertion.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import jsrkit as jk
from jsrkit.cocycle import cone_params_from_splitting, cone_propagation_check
from jsrkit.cycles import WeightedGraph, max_cycle_mean, path_max_totals
from jsrkit.fileio import save_matrix_set
from jsrkit.gallery import antidiagonal_pair, golden_rotation_convergents, rank_one_pair
from jsrkit.linalg import Subspace, grassmann_distance, max_unit_distance, singular_values
from jsrkit.shiftspace import PeriodicWord, SturmianSystem, epsilon_of_n

SQRT2 = math.sqrt(2.0)
FLOAT_SLACK = 1e-12  # roundoff allowance on mathematically-guaranteed enclosures


def report(number, name, ok, detail=""):
    print("criterion %02d %-34s %s %s" % (number, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s) failed: %s" % (number, name, detail)


def random_subspace(rng, d, p):
    raw = rng.standard_normal((d, p)) + 1j * rng.standard_normal((d, p))
    q, _ = np.linalg.qr(raw)
    return Subspace(q[:, :p])


def test_criterion_1_upper_sequence_closed_form():
    started = time.monotonic()
    E2 = rank_one_pair()
    worst = 0.0
    for n in range(1, 11):
        got = jk.rho_plus_n(E2, n).value
        want = 2 ** (1 + 1 / (2 * n))
        worst = max(worst, abs(got - want) / want)
    lower_1 = jk.rho_minus_n(E2, 1).value
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and abs(lower_1 - 2.0) <= 1e-12 and elapsed < 5.0
    report(1, "upper-sequence-closed-form", ok,
           "worst rel err %.2e, rho_minus_1 %.15f, %.2fs" % (worst, lower_1, elapsed))


def test_criterion_2_oscillating_lower_sequence():
    started = time.monotonic()
    E1 = antidiagonal_pair()
    minus = {n: jk.rho_minus_n(E1, n).value for n in range(1, 11)}
    shape_ok = (
        abs(minus[2] - SQRT2) <= 1e-12
        and abs(minus[3] - 1.0) <= 1e-12
        and all(v <= SQRT2 * (1 + 1e-12) for v in minus.values())
    )
    norm = jk.AdaptedNorm(E1, rho_hat=SQRT2, depth=6)
    sandwich = jk.sandwich(E1, 16, norm=norm)
    stuck_ok = all(
        abs(row.best_lower - SQRT2) <= 1e-12 for row in sandwich.rows if row.n >= 2
    )
    last = sandwich.rows[-1]
    enclosure_ok = (
        last.best_lower - FLOAT_SLACK <= SQRT2 <= last.best_upper + FLOAT_SLACK
    )
    gap_ok = last.gap <= 0.05
    elapsed = time.monotonic() - started
    ok = shape_ok and stuck_ok and enclosure_ok and gap_ok and elapsed < 60.0
    report(2, "oscillating-lower-sequence", ok,
           "rho2- %.12f rho3- %.12f gap %.2e, %.1fs"
           % (minus[2], minus[3], last.gap, elapsed))


def test_criterion_3_one_sided_convergence_rate():
    E2 = rank_one_pair()
    reportN = jk.sandwich(E2, 12)
    # lower bound is exactly the target from the first length onward
    lower_exact = all(abs(row.best_lower - 2.0) <= 1e-12 for row in reportN.rows)
    # upper gap decays like 1/n: fit on the tail of best_upper - 2
    tail = reportN.rows[6:]
    x = np.log([row.n for row in tail])
    y = np.log([row.best_upper - 2.0 for row in tail])
    r_hat = -np.polyfit(x, y, 1)[0]
    ok = lower_exact and abs(r_hat - 1.0) <= 0.1
    report(3, "one-sided-convergence-rate", ok,
           "upper-gap rate %.3f, lower gap 0 from n=1: %s" % (r_hat, lower_exact))


def test_criterion_4_splitting_construction():
    started = time.monotonic()
    failures = []

    def check(name, mset, word, oracle_fast, oracle_slow, oracle_xi, phase=0):
        p, _ = jk.detect_p(mset, word)
        result = jk.finite_splitting(mset, word, p, 12, phase=phase)
        d_fast = grassmann_distance(result.V, oracle_fast)
        d_slow = grassmann_distance(result.W, oracle_slow)
        diag = jk.splitting_residuals(mset, word, p, 24)
        cauchy_vals = [v for _, v in diag.cauchy_table]
        degenerate = all(v < 1e-12 for v in cauchy_vals)
        cauchy_ok = degenerate or diag.cauchy_r2 >= 0.99
        xi_ok = abs(diag.xi_hat - oracle_xi) <= 0.15 * oracle_xi
        checks = {
            "fast dGr<=1e-3": d_fast <= 1e-3,
            "slow dGr<=1e-3": d_slow <= 1e-3,
            "cauchy": cauchy_ok,
            "xi within 15%": xi_ok,
            "invariance<=1e-6": diag.invariance_residual <= 1e-6,
            "commutation<=1e-6": diag.commutation_residual <= 1e-6,
        }
        for label, passed in checks.items():
            if not passed:
                failures.append("%s: %s" % (name, label))

    triangular = jk.MatrixSet([[[1.0, 1.0], [0.0, 0.5]]])
    check(
        "triangular",
        triangular,
        PeriodicWord([0]),
        Subspace([[1], [0]]),
        Subspace(np.array([[2.0], [-1.0]]) / math.sqrt(5)),
        oracle_xi=0.5,
    )
    scaled = antidiagonal_pair().scaled(1 / SQRT2)
    # phase-0 cycle product is diag(1/4, 1): fast space e2, slow space e1
    check(
        "alternating",
        scaled,
        PeriodicWord([0, 1]),
        Subspace([[0], [1]]),
        Subspace([[1], [0]]),
        oracle_xi=0.5,
    )
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 10.0
    report(4, "splitting-construction", ok, "; ".join(failures) or "%.1fs" % elapsed)


def test_criterion_5_grassmann_identity_and_metric():
    rng = np.random.default_rng(105)
    worst_eq = 0.0
    worst_tri = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        p = int(rng.integers(1, d))
        U, V, W = (random_subspace(rng, d, p) for _ in range(3))
        worst_eq = max(
            worst_eq, abs(grassmann_distance(U, V) - max_unit_distance(U, V))
        )
        violation = (
            grassmann_distance(U, V)
            - grassmann_distance(U, W)
            - grassmann_distance(W, V)
        )
        worst_tri = max(worst_tri, violation)
        assert grassmann_distance(U, V) == grassmann_distance(V, U)
    ok = worst_eq <= 1e-8 and worst_tri <= 1e-10
    report(5, "grassmann-identity-and-metric", ok,
           "eq err %.2e, triangle excess %.2e" % (worst_eq, worst_tri))


def test_criterion_6_singular_value_product_inequality():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        sa, sb, sab = singular_values(A), singular_values(B), singular_values(A @ B)
        for ell in range(1, d + 1):
            lhs = float(np.prod(sab[:ell]))
            rhs = float(np.prod(sa[:ell]) * np.prod(sb[:ell]))
            if rhs > 0:
                worst = max(worst, (lhs - rhs) / rhs)
    ok = worst <= 1e-9
    report(6, "singular-value-products", ok, "worst rel violation %.2e" % worst)


def test_criterion_7_cycle_mean_limits():
    rng = np.random.default_rng(107)
    worst_window = 0.0
    envelope_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 9))
        G = WeightedGraph(n)
        for u in range(n):
            for v in range(n):
                if rng.random() < 0.4:
                    G.add_edge(u, v, int(rng.integers(-10, 11)))
        G.add_edge(int(rng.integers(0, n)), int(rng.integers(0, n)), int(rng.integers(-10, 11)))
        try:
            result = max_cycle_mean(G)
        except jk.cycles.NoCycleError:
            u = int(rng.integers(0, n))
            G.add_edge(u, u, int(rng.integers(-10, 11)))
            result = max_cycle_mean(G)
        # exact rational oracle: enumerate simple cycles directly
        oracle = exact_cycle_mean_oracle(G)
        assert result.mean == oracle
        w_max = max(abs(w) for _, _, w in G.edges)
        totals = path_max_totals(G, 1000)
        for length in (10, 50, 250):
            avg = totals[length] / length
            if not (
                avg >= result.value - 1e-9
                and abs(avg - result.value) <= 2 * w_max * G.n / length + 1e-9
            ):
                envelope_ok = False
        # the two limit expressions agree: windowed slope of the DP totals
        # at n = 1000 against the exact cycle mean
        window = (totals[1000] - totals[160]) / 840.0
        worst_window = max(worst_window, abs(window - result.value))
    ok = envelope_ok and worst_window <= 1e-9
    report(7, "cycle-mean-limits", ok,
           "worst limit mismatch %.2e, envelope %s" % (worst_window, envelope_ok))


def exact_cycle_mean_oracle(G):
    best_weight = {}
    for u, v, w in G.edges:
        key = (u, v)
        if key not in best_weight or w > best_weight[key]:
            best_weight[key] = w
    best = None

    def extend(path):
        nonlocal best
        u = path[-1]
        for v in range(G.n):
            if (u, v) not in best_weight:
                continue
            if v == path[0]:
                total = sum(
                    Fraction(best_weight[(a, b)]) for a, b in zip(path, path[1:] + [v])
                )
                mean = total / len(path)
                if best is None or mean > best:
                    best = mean
            elif v > path[0] and v not in path:
                extend(path + [v])

    for start in range(G.n):
        extend([start])
    return best


def test_criterion_8_cone_contraction():
    failures = []

    diagonal = jk.MatrixSet([np.diag([1.0, 0.5])])
    triangular = jk.MatrixSet([[[1.0, 1.0], [0.0, 0.5]]])
    scaled = antidiagonal_pair().scaled(1 / SQRT2)
    norm = jk.AdaptedNorm(scaled, rho_hat=1.0, depth=6)
    cases = [
        ("diagonal", diagonal, PeriodicWord([0]), 0.5, 4, None),
        ("triangular", triangular, PeriodicWord([0]), 0.25, 6, None),
        ("alternating", scaled, PeriodicWord([0, 1]), 0.25, 6, norm),
    ]
    for name, mset, word, theta, block, cone_norm in cases:
        params = cone_params_from_splitting(mset, word, theta=theta, norm=cone_norm)
        rep = cone_propagation_check(mset, word, params, N=block, laps=3)
        if not rep.ok:
            failures.append("%s propagation: %r" % (name, rep.failures[:2]))

    # nearby-cone containment: 1000 sampled cone vectors per example,
    # against a perturbed projection pair within aperture distance
    rng = np.random.default_rng(108)
    for name, mset, word in [
        ("diagonal", diagonal, PeriodicWord([0])),
        ("triangular", triangular, PeriodicWord([0])),
        ("alternating", scaled, PeriodicWord([0, 1])),
    ]:
        p, _ = jk.detect_p(mset, word)
        near = jk.finite_splitting(mset, word, p, 24).pair
        far = jk.finite_splitting(mset, word, p, 7).pair  # coarser horizon
        diff = float(np.linalg.norm(near.P - far.P, 2))
        theta = min(max(diff * 1.05, 0.05), 0.19)
        if diff > theta:
            failures.append("%s containment hypothesis failed (diff %.3f)" % (name, diff))
            continue
        bad = 0
        pv = near.V.basis[:, 0]
        qv = near.W.basis[:, 0]
        for _ in range(1000):
            t = rng.uniform(0, theta) * np.exp(2j * np.pi * rng.uniform())
            v = pv + t * qv * (np.linalg.norm(pv) / np.linalg.norm(qv))
            inner = theta * np.linalg.norm(near.P @ v) - np.linalg.norm(
                near.complement() @ v
            )
            outer = 3 * theta * np.linalg.norm(far.P @ v) - np.linalg.norm(
                far.complement() @ v
            )
            if inner >= 0 and outer < -1e-12:
                bad += 1
        if bad:
            failures.append("%s containment: %d escapes" % (name, bad))
    ok = not failures
    report(8, "cone-contraction", ok, "; ".join(failures) or "all cases")


def test_criterion_9_sturmian_epsilon_decay():
    started = time.monotonic()
    system = SturmianSystem(golden_rotation_convergents())
    values = {}
    for q in (5, 8, 13, 21, 34):
        values[q] = epsilon_of_n(system, q).value
    ratios = [
        values[b] / values[a] for a, b in zip((5, 8, 13, 21), (8, 13, 21, 34))
    ]
    elapsed = time.monotonic() - started
    ok = all(r <= 0.5 for r in ratios) and elapsed < 30.0
    report(9, "sturmian-epsilon-decay", ok,
           "values %s ratios %s, %.1fs"
           % (["%.2e" % values[q] for q in (5, 8, 13, 21, 34)],
              ["%.2e" % r for r in ratios], elapsed))


def test_criterion_10_worker_determinism(tmp_path):
    fixture = tmp_path / "antidiagonal.json"
    save_matrix_set(antidiagonal_pair(), str(fixture))
    outputs = []
    for workers in (1, 2, 8):
        out = tmp_path / ("w%d.csv" % workers)
        proc = subprocess.run(
            [sys.executable, "-m", "jsrkit", "bounds", "--input", str(fixture),
             "--out", str(out), "--max-depth", "8", "--workers", str(workers)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(10, "worker-determinism", ok, "%d bytes" % len(outputs[0]))

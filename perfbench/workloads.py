"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``__init__`` (this is
the set-up that ``setup_s`` times), runs one closed-loop operation per
``run`` call, and checks the outputs afterwards, outside the timed part.

Seeds and steadiness: the seed draws a random orthogonal (real
families) or unitary (complex families) change of basis ``Q A Q^H`` of
fixed base families.  Euclidean norms and spectral radii of every
product are invariant under it, so the amount of work, the enclosures
and the share of searches that close are the same for every seed up to
roundoff, while every input entry changes with the seed.  Random base
families drawn per seed would make ``wall_s``, ``enclosure_gap`` and
``closed_frac`` vary far beyond any usable regression bound.
"""

import contextlib
import csv
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from jsrkit import bounds, cli, linalg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data"

# relative slack for comparisons between values computed along different
# evaluation orders (batched einsum vs. MatrixSet.product, etc.)
RTOL = 1e-12


def random_unitary(rng, d, complex_entries):
    z = rng.standard_normal((d, d))
    if complex_entries:
        z = z + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated(base, q):
    return bounds.MatrixSet([q @ A @ q.conj().T for A in base])


def close(a, b, rtol=RTOL):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Workload:
    def run_inprocess(self, tracer):
        """The operation as the traced run makes it (default: ``run``)."""
        return self.run()

    def extras(self, tracer, base_walls):
        """Traced-run-only calls: (per-layer metrics, failures per operation)."""
        return {}, []

    def layer_metrics(self, tracer, results):
        return {}

    def peak_rss_kib(self, results):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def wall_s(self, walls, results):
        # load from other processes on a shared machine only ever slows an
        # operation (README, "End-to-end metrics")
        return min(walls)


class ExhaustiveLevel(Workload):
    """``sandwich`` on 2 real 4x4 matrices, Euclidean norm, N=18, one worker."""

    N = 18
    BRUTE_FORCE_MAX_N = 8

    def __init__(self, seed, workdir):
        base = np.random.default_rng(0).standard_normal((2, 4, 4))
        q = random_unitary(np.random.default_rng(seed), 4, complex_entries=False)
        self.mset = conjugated(base, q)

    def run(self):
        return bounds.sandwich(self.mset, self.N, workers=1)

    def _problems(self, report):
        problems = []
        if report.truncated or len(report.rows) != self.N:
            problems.append("report truncated at %d rows" % len(report.rows))
        previous = None
        for row in report.rows:
            if not row.best_lower <= row.best_upper:
                problems.append("n=%d: best_lower > best_upper" % row.n)
            if previous and (row.best_lower < previous.best_lower or row.best_upper > previous.best_upper):
                problems.append("n=%d: running bounds not monotone" % row.n)
            previous = row
            plus = linalg.operator_norm(self.mset.product(row.word_plus)) ** (1.0 / row.n)
            minus = linalg.spectral_radius(self.mset.product(row.word_minus)) ** (1.0 / row.n)
            if not (close(plus, row.rho_plus) and close(minus, row.rho_minus)):
                problems.append("n=%d: argmax words do not reproduce the bounds" % row.n)
        m = len(self.mset)
        for row in report.rows[: self.BRUTE_FORCE_MAX_N]:
            products = [self.mset.product(w) for w in itertools.product(range(m), repeat=row.n)]
            plus = max(linalg.operator_norm(P) for P in products) ** (1.0 / row.n)
            minus = max(linalg.spectral_radius(P) for P in products) ** (1.0 / row.n)
            if not (close(plus, row.rho_plus) and close(minus, row.rho_minus)):
                problems.append("n=%d: brute force disagrees" % row.n)
        return problems

    def check(self, results):
        """One list of failure messages per sandwich call."""
        first = self._problems(results[0])
        return [first + ([] if r == results[0] else ["differs from the first report"]) for r in results]

    def enclosure_gap(self, results):
        return results[0].rows[-1].gap

    def closed_frac(self, results):
        return statistics.mean(0.0 if r.truncated else 1.0 for r in results)

    def extras(self, tracer, base_walls):
        tracemalloc.start()
        try:
            single = bounds.sandwich(self.mset, self.N, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        started = time.perf_counter()
        double = bounds.sandwich(self.mset, self.N, workers=2)
        parallel_s = time.perf_counter() - started
        bounds.rho_plus_n(self.mset, self.N)
        bounds.rho_minus_n(self.mset, self.N)
        identical = double == single
        metrics = {
            "bounds.sandwich.peak_alloc_mb": peak / 2**20,
            "bounds.sandwich.parallel_speedup": statistics.median(base_walls) / parallel_s,
            "bounds.sandwich.workers_identical": float(identical),
        }
        return metrics, [[] if identical else ["workers=2 output differs from workers=1"]]


class PrunedBatch(Workload):
    """``pruned_bounds`` on 24 families: 2 real 4x4 and 3 complex 3x3, alternating."""

    FAMILIES = 24
    DELTA = 0.02
    MAX_DEPTH = 40
    BUDGET = 20_000
    REFERENCE_DEPTH = 6

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.families = []
        for k in range(self.FAMILIES):
            base_rng = np.random.default_rng(1000 + k)
            if k % 2 == 0:
                base = base_rng.standard_normal((2, 4, 4))
                q = random_unitary(rng, 4, complex_entries=False)
            else:
                base = base_rng.standard_normal((3, 3, 3)) + 1j * base_rng.standard_normal((3, 3, 3))
                q = random_unitary(rng, 3, complex_entries=True)
            self.families.append(conjugated(base, q))

    def run(self):
        return [
            bounds.pruned_bounds(
                mset, self.DELTA, max_depth=self.MAX_DEPTH, budget=bounds.BudgetCounter(self.BUDGET)
            )
            for mset in self.families
        ]

    def check(self, results):
        """One list of failure messages per search."""
        failures = []
        for k, mset in enumerate(self.families):
            reference = bounds.sandwich(mset, self.REFERENCE_DEPTH).rows[-1]
            first = results[0][k]
            problems = []
            if not first.lower <= first.upper:
                problems.append("family %d: lower > upper" % k)
            if first.conclusive and not first.upper - first.lower <= self.DELTA:
                problems.append("family %d: conclusive with gap above delta" % k)
            if first.lower > reference.best_upper * (1 + RTOL) or reference.best_lower > first.upper * (1 + RTOL):
                problems.append("family %d: enclosure misses the depth-6 sandwich" % k)
            for batch in results:
                same = batch[k] == first
                failures.append(problems + ([] if same else ["family %d: differs from the first batch" % k]))
        return failures

    def enclosure_gap(self, results):
        return statistics.median(r.upper - r.lower for r in results[0])

    def closed_frac(self, results):
        return statistics.mean(float(r.conclusive) for batch in results for r in batch)


GOLDEN = "1/2,2/3,3/5,5/8,8/13,13/21,21/34,34/55,55/89,89/144,144/233"

# the fixed script: (name, arguments besides --out and --svg)
SCRIPT = [
    ("bounds", ["bounds", "--input", "antidiagonal_pair.json", "--norm", "adapted",
                "--adapted-depth", "6", "--max-depth", "16"]),
    ("convergence", ["convergence", "--input", "rank_one_pair.json", "--max-depth", "16"]),
    ("splitting", ["splitting", "--input", "rank_one_pair.json", "--cycle", "0", "--max-depth", "12"]),
    ("epsilon", ["epsilon", "--gamma", GOLDEN, "--max-depth", "34"]),
    ("pruned", ["pruned", "--input", "antidiagonal_pair.json", "--delta", "0.01"]),
]
ENCLOSURE_COMMANDS = ("bounds", "convergence", "pruned")


@dataclass
class Session:
    directory: Path
    exit_codes: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)
    max_rss_kib: float = 0.0


def run_child(argv, env):
    """Run a process to completion: (exit code, stderr, max RSS in KiB)."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stderr.decode("utf-8", "replace"), usage.ru_maxrss


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class CliSession(Workload):
    """The fixed five-command CLI script on the ``data/`` fixtures.

    Every run executes the same script; the seed changes nothing in it.
    """

    def __init__(self, seed, workdir):
        self.workdir = workdir
        for name in ("antidiagonal_pair.json", "rank_one_pair.json"):
            shutil.copyfile(DATA / name, workdir / name)
        self.sessions = 0

    def _argv(self, directory):
        for name, args in SCRIPT:
            argv = [str(self.workdir / a) if a.endswith(".json") else a for a in args]
            argv += ["--out", str(directory / (name + ".csv"))]
            if name == "convergence":
                argv += ["--svg", str(directory / "convergence.svg")]
            yield name, argv

    def _new_session(self):
        directory = self.workdir / ("session-%d" % self.sessions)
        directory.mkdir()
        self.sessions += 1
        return Session(directory)

    def run(self):
        session = self._new_session()
        env = child_env()
        for name, argv in self._argv(session.directory):
            began = time.perf_counter()
            code, _, rss = run_child([sys.executable, "-m", "jsrkit"] + argv, env)
            session.seconds[name] = time.perf_counter() - began
            session.exit_codes[name] = code
            session.max_rss_kib = max(session.max_rss_kib, rss)
        return session

    def run_inprocess(self, tracer):
        session = self._new_session()
        run_id = tracer.run if tracer is not None else None
        for name, argv in self._argv(session.directory):
            if tracer is not None:
                tracer.run = "%s/%s" % (run_id, name)
            with tracer.span("cli." + name) if tracer is not None else contextlib.nullcontext():
                session.exit_codes[name] = cli.main(argv)
        return session

    def _problems(self, session, name):
        code = session.exit_codes[name]
        if code != 0:
            return ["%s: exit code %d" % (name, code)]
        out = session.directory / (name + ".csv")
        meta = Path(str(out) + ".meta.json")
        if not (out.is_file() and meta.is_file()):
            return ["%s: CSV or meta.json missing" % name]
        rows = read_csv(out)
        if not rows:
            return ["%s: no rows" % name]
        sqrt2 = math.sqrt(2.0)
        problems = []
        if name == "bounds":
            last = rows[-1]
            lower, upper = float(last["best_lower"]), float(last["best_upper"])
            if not lower <= sqrt2 * (1 + RTOL) or not sqrt2 <= upper * (1 + RTOL):
                problems.append("bounds: enclosure misses sqrt(2)")
        elif name == "pruned":
            lower, upper = float(rows[0]["lower"]), float(rows[0]["upper"])
            if not lower <= sqrt2 * (1 + RTOL) or not sqrt2 <= upper * (1 + RTOL):
                problems.append("pruned: enclosure misses sqrt(2)")
        elif name == "convergence":
            if len(rows) != 16 or not (session.directory / "convergence.svg").is_file():
                problems.append("convergence: rows or SVG missing")
            for row in rows:
                n = int(row["n"])
                if not (
                    abs(float(row["best_lower"]) - 2.0) <= 1e-9
                    and close(float(row["best_upper"]), 2 ** (1 + 1 / (2 * n)), 1e-9)
                ):
                    problems.append("convergence: rank-one row %d off the closed form" % n)
        elif name == "epsilon" and len(rows) != 34:
            problems.append("epsilon: %d rows, expected 34" % len(rows))
        return problems

    def check(self, results):
        """One list of failure messages per command."""
        return [self._problems(session, name) for session in results for name, _ in SCRIPT]

    def _final_gap(self, session, name):
        rows = read_csv(session.directory / (name + ".csv"))
        return float(rows[-1]["gap"])

    def enclosure_gap(self, results):
        """The widest final enclosure among the session's enclosure commands."""
        return max(self._final_gap(results[0], name) for name in ENCLOSURE_COMMANDS)

    def closed_frac(self, results):
        return statistics.mean(
            float(s.exit_codes[name] == cli.EXIT_OK) for s in results for name in ENCLOSURE_COMMANDS
        )

    def peak_rss_kib(self, results):
        return max(session.max_rss_kib for session in results)

    def wall_s(self, walls, results):
        """The script's time with each command at its fastest run."""
        return sum(min(session.seconds[name] for session in results) for name, _ in SCRIPT)

    def layer_metrics(self, tracer, results):
        """``cli.budget_unreported``: multiplications made by the adapted
        ``bounds`` command minus the ``budget_used`` its meta.json reports."""
        unreported = []
        for k, session in enumerate(results):
            if isinstance(session, Exception) or session.exit_codes["bounds"] != cli.EXIT_OK:
                continue
            run = ["op-%d/bounds" % k]
            made = (
                tracer.count(run, "bounds.sandwich.budget_used")
                + tracer.count(run, "bounds.pruned_bounds.budget_used")
                + tracer.count(run, "extremal.AdaptedNorm.family_mults")
            )
            meta = session.directory / "bounds.csv.meta.json"
            with open(meta, encoding="utf-8") as fh:
                reported = json.load(fh)["budget_used"]
            unreported.append(made - reported)
        return {"cli.budget_unreported": statistics.median(unreported)} if unreported else {}


WORKLOADS = {
    "exhaustive-level": ExhaustiveLevel,
    "pruned-batch": PrunedBatch,
    "cli-session": CliSession,
}

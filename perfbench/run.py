"""jsrkit benchmark.

    python3 perfbench/run.py --workload exhaustive-level --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from ``src/``.  One run sets up the workload, repeats its
operation for ``--seconds`` seconds in a closed loop, checks every
output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics, taken from spans recorded
around calls into the package (see ``spans.py``).  The machine and
environment are printed on the line before and saved, with the
metrics, under ``perfbench/out/``.
"""

import argparse
import ctypes
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
WORKLOAD_NAMES = ("exhaustive-level", "pruned-batch", "cli-session")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def openblas_threads():
    """Threads the loaded OpenBLAS runs with, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return getter()
    return None


def environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": openblas_threads(),
        "blas_thread_vars": {name: os.environ.get(name, "unset") for name in BLAS_THREAD_VARS},
    }


def timed_loop(op, seconds):
    """Repeat ``op`` until ``seconds`` have passed (at least once)."""
    walls, results = [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        began = time.perf_counter()
        results.append(attempt(op))
        walls.append(time.perf_counter() - began)
    return walls, results


def attempt(op):
    try:
        return op()
    except Exception as exc:  # the operation failed: counted, and the run goes on
        return exc


def check(workload, results):
    """Failure messages per operation, and the results of operations that returned."""
    returned = [r for r in results if not isinstance(r, Exception)]
    raised = [["raised %r" % r] for r in results if isinstance(r, Exception)]
    return raised + (workload.check(returned) if returned else []), returned


def child_seconds(argv):
    """Wall time of a fresh process, from spawn to exit, which must be 0."""
    from workloads import child_env, run_child

    began = time.perf_counter()
    code, stderr, _ = run_child(argv, child_env())
    seconds = time.perf_counter() - began
    if code != 0:
        raise RuntimeError("%s exited %d: %s" % (argv, code, stderr))
    return seconds


def setup_seconds(args):
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0"]
    return statistics.median(child_seconds(argv) for _ in range(SETUP_REPEATS))


def ops_ok(failures):
    return 1.0 - sum(1 for f in failures if f) / len(failures)


def end_to_end(workload, args, setup_s):
    walls, results = timed_loop(workload.run, args.seconds)
    failures, results = check(workload, results)
    if not results:
        return {}, failures, {"walls": walls}
    metrics = {
        "setup_s": setup_s,
        "wall_s": workload.wall_s(walls, results),
        "peak_rss_mb": workload.peak_rss_kib(results) / 1024,
        "enclosure_gap": workload.enclosure_gap(results),
        "closed_frac": workload.closed_frac(results),
        "ops_ok_frac": ops_ok(failures),
    }
    return metrics, failures, {"walls": walls}


def per_layer(workload, args):
    from spans import Tracer

    tracer = Tracer()
    warm_up = attempt(lambda: workload.run_inprocess(None))
    # untraced and traced operations alternate, so drift in the machine's
    # speed falls on both sides of the tracing overhead alike
    base_walls, base_results, walls, results = [], [], [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < args.seconds:
        began = time.perf_counter()
        base_results.append(attempt(lambda: workload.run_inprocess(None)))
        base_walls.append(time.perf_counter() - began)
        tracer.install()
        try:
            tracer.run = "op-%d" % len(walls)
            began = time.perf_counter()
            results.append(attempt(lambda: workload.run_inprocess(tracer)))
            walls.append(time.perf_counter() - began)
        finally:
            tracer.remove()
    tracer.install()
    try:
        tracer.run = "extra"
        extras = attempt(lambda: workload.extras(tracer, base_walls))
    finally:
        tracer.remove()
    failures, _ = check(workload, [warm_up] + base_results + results)
    if isinstance(extras, Exception):
        extras = {}, [["raised %r" % extras]]
    failures += extras[1]

    metrics = span_metrics(tracer, len(walls))
    metrics.update(extras[0])
    metrics.update(workload.layer_metrics(tracer, results))
    import_argv = [sys.executable, "-c", "import jsrkit"]
    metrics["cli.import_s"] = statistics.median(child_seconds(import_argv) for _ in range(IMPORT_REPEATS))
    metrics["trace.wall_s"] = statistics.median(walls)
    metrics["trace.untraced_wall_s"] = statistics.median(base_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.coverage"] = tracer.top_level_time(tracer.op_runs()) / sum(walls)

    trace_path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    tracer.dump(trace_path, {"walls": walls, "untraced_walls": base_walls})
    return metrics, failures, {"walls": walls, "untraced_walls": base_walls, "trace_file": str(trace_path)}


def span_metrics(tracer, ops):
    """Per-layer metrics per operation from the spans and counts of the loop."""
    runs = tracer.op_runs()
    metrics = {}
    for name, (self_s, total_s, calls) in tracer.self_times(runs).items():
        # a command's time is its whole in-process run; layers report self time
        metrics[name + ".s"] = (total_s if name.startswith("cli.") else self_s) / ops
        metrics[name + ".calls"] = calls / ops
    metrics["extremal.AdaptedNorm.init_s"] = metrics.pop("extremal.AdaptedNorm.init.s", 0.0)
    for name, (_, total_s, _) in tracer.self_times({"extra"}).items():
        if name.startswith("bounds.rho_"):
            metrics[name + ".s"] = total_s
    for name in ("bounds.sandwich.words", "bounds.sandwich.budget_used", "bounds.pruned_bounds.expanded",
                 "bounds.pruned_bounds.budget_used", "bounds.pruned_bounds.budget_capped",
                 "extremal.matrix_norms_batch.matrices", "fileio.bytes_written"):
        metrics[name] = tracer.count(runs, name) / ops
    for name in ("bounds.level_bytes", "bounds.pruned_bounds.deepest", "extremal.AdaptedNorm.family_size"):
        metrics[name] = tracer.max_count(runs, name)
    for rate, work, busy in (("bounds.sandwich.words_per_s", "bounds.sandwich.words", "bounds.sandwich.s"),
                             ("bounds.pruned_bounds.nodes_per_s", "bounds.pruned_bounds.expanded",
                              "bounds.pruned_bounds.s")):
        seconds = metrics.get(busy, 0.0)
        metrics[rate] = metrics[work] / seconds if seconds else 0.0
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "jsrkit" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no jsrkit sources under %s\n" % (ROOT / "src"))
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        if args.setup_only:
            return 0
        if args.trace:
            measured, failures, detail = per_layer(workload, args)
        else:
            measured, failures, detail = end_to_end(workload, args, setup_seconds(args))

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared}
    env = environment(args)
    record = {
        "env": env,
        "metrics": metrics,
        "measured": measured,
        "failures": [f for f in failures if f],
        **detail,
    }
    with open(OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    for problems in record["failures"]:
        sys.stderr.write("perfbench: check failed: %s\n" % "; ".join(problems))
    failed = len(record["failures"])
    print("env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": len(failures), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder for the traced benchmark run.

Spans are taken from outside the package: ``Tracer.install`` swaps
selected module attributes (``bounds.sandwich``,
``extremal.AdaptedNorm.matrix_norms_batch``, ``cocycle.detect_p``, ...)
for wrappers that record a span around each call, and ``remove`` puts
the originals back.  The CLI reaches these functions through the same
module attributes, so an in-process ``cli.main`` call nests its spans
under them.  Counts (multiplications charged, words, nodes expanded,
bytes written) are taken by the same wrappers, so a ratio such as
nodes per second is measured at the boundary where the work happens.

Spans stay in memory until ``dump`` writes them, with the counts, when
the run ends.
"""

import contextlib
import inspect
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

from jsrkit import bounds, cocycle, extremal, fileio, shiftspace


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # id of the enclosing span, or -1 at top level
    run: str  # one id per workload operation, shared by all its spans


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)  # (run, name) -> value
        self.run = None
        self._open = []
        self._originals = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1].id if self._open else -1
        record = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def add(self, name, value):
        self.counts[(self.run, name)] += value

    def peak(self, name, value):
        key = (self.run, name)
        self.counts[key] = max(self.counts[key], value)

    # -- patching -----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timed(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def _budgeted(self, attr, after):
        """Wrap a ``bounds`` function that takes ``budget=``.

        A missing or integer budget is replaced by the ``BudgetCounter``
        the function would have built itself, so the multiplications it
        charges can be read afterwards.
        """
        original = getattr(bounds, attr)
        signature = inspect.signature(original)
        tracer = self

        def wrapper(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            counter = call.arguments.get("budget")
            if not isinstance(counter, bounds.BudgetCounter):
                counter = bounds.BudgetCounter(counter)
                call.arguments["budget"] = counter
            used = counter.used
            with tracer.span("bounds." + attr):
                result = original(*call.args, **call.kwargs)
            after(call.arguments, result, counter, counter.used - used)
            return result

        self._patch(bounds, attr, wrapper)

    def install(self):
        def after_sandwich(arguments, report, counter, used):
            mset = arguments["mset"]
            m, d, levels = len(mset), mset.d, len(report.rows)
            self.add("bounds.sandwich.budget_used", used)
            self.add("bounds.sandwich.words", sum(m**n for n in range(1, levels + 1)))
            itemsize = mset.stack().dtype.itemsize
            self.peak("bounds.level_bytes", m**levels * d * d * itemsize)

        def after_pruned(arguments, result, counter, used):
            m = len(arguments["mset"])
            self.add("bounds.pruned_bounds.budget_used", used)
            self.add("bounds.pruned_bounds.expanded", result.expanded)
            self.peak("bounds.pruned_bounds.deepest", result.deepest)
            if not result.conclusive and counter.used + m > counter.limit:
                self.add("bounds.pruned_bounds.budget_capped", 1)

        def after_adapted(args, kwargs, result):
            norm = args[0]
            m = len(norm.mset)
            self.peak("extremal.AdaptedNorm.family_size", sum(m**k for k in range(norm.depth + 1)))
            self.add("extremal.AdaptedNorm.family_mults", sum(m**k for k in range(1, norm.depth + 1)))

        def after_batch(args, kwargs, result):
            self.add("extremal.matrix_norms_batch.matrices", len(result))

        self._budgeted("sandwich", after_sandwich)
        self._budgeted("pruned_bounds", after_pruned)
        self._timed(bounds, "rho_plus_n", "bounds.rho_plus_n")
        self._timed(bounds, "rho_minus_n", "bounds.rho_minus_n")
        self._timed(extremal.AdaptedNorm, "__init__", "extremal.AdaptedNorm.init", after_adapted)
        self._timed(extremal.AdaptedNorm, "matrix_norms_batch", "extremal.matrix_norms_batch", after_batch)
        self._timed(extremal.AdaptedNorm, "matrix_norm", "extremal.matrix_norm")
        for attr in ("detect_p", "finite_splitting", "splitting_residuals"):
            self._timed(cocycle, attr, "cocycle." + attr)
        self._timed(shiftspace, "epsilon_of_n", "shiftspace.epsilon_of_n")
        for attr in ("load_matrix_set", "write_csv", "write_metadata", "write_gap_svg"):
            self._timed(fileio, attr, "fileio." + attr)

        write_atomic = fileio.write_atomic

        def counted_write(path, text):
            self.add("fileio.bytes_written", len(text.encode("utf-8")))
            return write_atomic(path, text)

        self._patch(fileio, "write_atomic", counted_write)

    def remove(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------

    def op_runs(self):
        """Run ids of the workload's operations (all but the traced-only calls)."""
        runs = {s.run for s in self.spans} | {run for run, _ in self.counts}
        return runs - {"extra"}

    def self_times(self, runs):
        """Per span name: (summed self time, summed duration, calls) over ``runs``."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for s in self.spans:
            if s.run in runs:
                entry = out[s.name]
                entry[0] += s.end - s.start - child_time[s.id]
                entry[1] += s.end - s.start
                entry[2] += 1
        return out

    def top_level_time(self, runs):
        return sum(s.end - s.start for s in self.spans if s.parent < 0 and s.run in runs)

    def count(self, runs, name):
        return sum(self.counts.get((run, name), 0.0) for run in runs)

    def max_count(self, runs, name):
        return max((self.counts.get((run, name), 0.0) for run in runs), default=0.0)

    def dump(self, path, extra):
        counts = [{"run": run, "name": name, "value": value} for (run, name), value in self.counts.items()]
        doc = dict(extra, spans=[asdict(s) for s in self.spans], counts=counts)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

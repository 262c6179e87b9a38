"""Command-line front end.

    jsrkit <command> --out report.csv [--max-depth N] [options]

Commands: bounds, convergence, pruned, splitting, sturmian, epsilon.
Each command declares the options it reads (``COMMANDS``), and its
parser accepts only those besides ``--out`` and ``--max-depth``; any
other option is refused with exit code 2.  Each run writes a CSV report
atomically plus a JSON metadata file (`<out>.meta.json`) echoing the
command's options, budget counters and wall time.  Exit codes: 0
success, 2 input error (an OS error on a file too), 3 inconclusive
(budget or pruning did not close the gap, or a splitting cycle has no
invariant splitting), 4 internal invariant violation; stderr carries one line
``jsrkit: <kind>: <message>``.  The ``JSRKIT_BUDGET`` environment
variable overrides the multiplication budget.

Every command is a fresh process, so a run loads only what its command
uses: the parser holds that command's subparser alone, and each report
imports the modules it runs, so ``sturmian`` and ``epsilon`` never load
numpy.
"""

import argparse
import functools
import math
import sys
import time

from . import __version__, budget, fileio

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

BOUNDS_HEADER = [
    "n",
    "rho_plus_n",
    "rho_minus_n",
    "best_lower",
    "best_upper",
    "gap",
    "argmax_word_plus",
    "argmax_word_minus",
]


def _word_text(word):
    return "-".join(str(i) for i in word)


def _fail(kind, message, code):
    sys.stderr.write("jsrkit: %s: %s\n" % (kind, message))
    return code


def _parse_gamma(text):
    from fractions import Fraction

    try:
        return [Fraction(t) for t in text.split(",") if t.strip()]
    except ZeroDivisionError:
        raise ValueError("--gamma has a convergent with a zero denominator") from None
    except ValueError:
        raise ValueError("--gamma must be a comma list of fractions, got %r" % text) from None


def _parse_cycle(text):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ValueError("--cycle must be a comma list of symbols, got %r" % text) from None


def _rho_hat(cfg, mset, counter, cycle):
    """The lower bound on the jsr that every normalisation of a run divides
    by, and the meta.json entries that say where it came from.

    ``--rho-hat`` if given; else the lower value of one pruned enclosure
    (delta 0.05, depth 14) charged to ``counter``, written as
    ``probe_enclosure``, and raised for ``splitting`` to the radius
    ``rho(A_x)^(1/r)`` of its cycle x (``cycle``; None for a norm), written
    as ``cycle_rho``.  Both are sound lower bounds, and for an extremal
    cycle their maximum is the jsr.  A bound that is not positive, as for a
    nilpotent family, normalises nothing and raises ``ValueError``."""
    from . import bounds

    if cfg.rho_hat is not None:
        return cfg.rho_hat, {"rho_hat": cfg.rho_hat}
    probe = bounds.pruned_bounds(mset, 0.05, max_depth=14, budget=counter)
    meta = {"probe_enclosure": [probe.lower, probe.upper]}
    rho_hat = probe.lower
    if cycle is not None:
        from . import cocycle

        # on the family divided by the power of two in (upper / 2, upper],
        # which is exact and keeps the certificate's powers A_x^k, k <= 8,
        # from overflowing where the normalised orbit does not
        scale = 2.0 ** (math.frexp(probe.upper)[1] - 1)
        meta["cycle_rho"] = scale * cocycle.certify_lower(mset.scaled(1.0 / scale), cycle).value
        rho_hat = max(rho_hat, meta["cycle_rho"])
    if not rho_hat > 0.0:
        raise ValueError("jsr probe enclosure [%g, %g]; give --rho-hat" % (probe.lower, probe.upper))
    return rho_hat, {"rho_hat": rho_hat} | meta


def _make_norm(cfg, mset, counter):
    """The run's norm and its meta.json entries; the adapted norm's probe
    and family are charged to ``counter``."""
    from . import bounds

    if cfg.norm == "euclidean":
        return bounds.EUCLIDEAN, {}
    from . import extremal

    rho_hat, meta = _rho_hat(cfg, mset, counter, None)
    norm = extremal.AdaptedNorm(mset, rho_hat=rho_hat, depth=cfg.adapted_depth, budget=counter)
    # its family before and after Loewner pruning
    return norm, meta | {"full_family_size": norm.full_family_size, "family_size": norm.family_size}


def _bounds_rows(report):
    return [
        (
            row.n,
            row.rho_plus,
            row.rho_minus,
            row.best_lower,
            row.best_upper,
            row.gap,
            _word_text(row.word_plus),
            _word_text(row.word_minus),
        )
        for row in report.rows
    ]


def _report_bounds(cfg, mset, counter, fit=False):
    from . import bounds

    norm, norm_meta = _make_norm(cfg, mset, counter)
    report = bounds.sandwich(mset, cfg.max_depth, norm=norm, budget=counter)
    extra = {"norm": report.norm_label, "truncated": report.truncated} | norm_meta
    if fit and math.ceil(len(report.rows) * cfg.tail_fraction) >= 6:  # the tail fit_rate needs
        rate = bounds.fit_rate(report, cfg.tail_fraction)
        extra["fitted_rate"] = None if rate.converged else rate.r_hat
        extra["fit_r_squared"] = None if rate.converged else rate.r_squared
        extra["gap_converged"] = rate.converged
    if cfg.svg:
        rows = report.rows
        fileio.write_gap_svg(cfg.svg, [r.n for r in rows], [r.gap for r in rows])
    reason = "budget exhausted before depth %d" % cfg.max_depth if report.truncated else None
    return BOUNDS_HEADER, _bounds_rows(report), extra, reason


def _report_pruned(cfg, mset, counter):
    from . import bounds

    result = bounds.pruned_bounds(mset, cfg.delta, max_depth=cfg.max_depth, budget=counter)
    gap = result.upper - result.lower
    header = ["lower", "upper", "gap", "conclusive", "expanded", "deepest"]
    row = (result.lower, result.upper, gap, int(result.conclusive), result.expanded, result.deepest)
    reason = None
    if not result.conclusive:
        reason = "gap %.6g above delta %.6g at depth %d" % (gap, cfg.delta, result.deepest)
        if result.capped:
            reason += ", with the multiplication budget (%d) spent" % counter.limit
    return header, [row], {}, reason


def _report_splitting(cfg, mset, counter):
    from . import cocycle, shiftspace

    header = ["n", "cauchy_dgr"]
    word = shiftspace.PeriodicWord(_parse_cycle(cfg.cycle))
    word.validate_for(mset)  # before the rho_hat probe runs
    rho_hat, extra = _rho_hat(cfg, mset, counter, word.cycle)
    working = mset.scaled(1.0 / rho_hat)
    horizon = max(4 * word.period, 2 * cfg.max_depth)
    try:
        p, thetas = cocycle.detect_p(working, word)
    except cocycle.AmbiguousExponentsError as exc:
        return header, [], extra, str(exc)
    extra |= {"p": p, "theta_estimates": thetas}
    if p == 0:  # the top exponent is negative, or positive for a --rho-hat below the cycle's growth
        reason = "cycle %s has no invariant splitting: its top growth exponent at rho_hat %.6g is %.3g"
        return header, [], extra, reason % (cfg.cycle, rho_hat, thetas[0])
    diag = cocycle.splitting_residuals(working, word, p, horizon)
    extra |= {
        "invariance_residual": diag.invariance_residual,
        "commutation_residual": diag.commutation_residual,
        "delta_hat": diag.delta_hat,
        "xi_hat": diag.xi_hat,
        "contraction_r2": diag.contraction_r2,
        "cauchy_rate": diag.cauchy_rate,
        "cauchy_r2": diag.cauchy_r2,
    }
    return header, diag.cauchy_table, extra, None


def _report_sturmian(cfg, mset, counter):
    from . import shiftspace

    convergents = _parse_gamma(cfg.gamma)
    point = shiftspace.sturmian_word(convergents, 0, cfg.max_depth)
    rows = [(i, point.symbol(i)) for i in range(cfg.max_depth)]
    return ["i", "symbol"], rows, {"gamma": str(convergents[-1])}, None


def _report_epsilon(cfg, mset, counter):
    from . import shiftspace

    system = shiftspace.SturmianSystem(_parse_gamma(cfg.gamma))
    result = shiftspace.epsilon_of_n(system, cfg.max_depth)
    rows = [(n, value, "exact" if result.exact else "upper") for n, value in result.per_n]
    extra = {"best_orbit": _word_text(result.orbit.cycle), "best_period": result.period}
    return ["n", "epsilon", "certainty"], rows, extra, None


# each option's argparse keywords; its flag is --name with - for _
OPTIONS = {
    "input": dict(help="matrix-set JSON file"),
    "out": dict(required=True, help="CSV output path"),
    "max_depth": dict(type=int, default=8),
    "norm": dict(choices=["euclidean", "adapted"], default="euclidean"),
    "adapted_depth": dict(type=int, default=6),
    "rho_hat": dict(type=float, default=None),
    "delta": dict(type=float, default=0.05),
    "gamma": dict(help="comma list of convergents p/q"),
    # accepted and ignored, so that existing scripts keep running
    "workers": dict(type=int, default=1),
    "cycle": dict(default="0", help="comma list of symbols for the orbit"),
    "svg": dict(default=None, help="optional SVG plot of the gap column"),
    "tail_fraction": dict(type=float, default=0.5),
}
BOUNDS_OPTIONS = ("input", "norm", "adapted_depth", "rho_hat", "svg", "workers")

# each command's report, (cfg, mset, counter) -> (header, rows, meta
# entries, reason if inconclusive), and the options it reads besides
# --out and --max-depth, the one that gives its input first
COMMANDS = {
    "bounds": (_report_bounds, BOUNDS_OPTIONS),
    "convergence": (functools.partial(_report_bounds, fit=True), BOUNDS_OPTIONS + ("tail_fraction",)),
    "pruned": (_report_pruned, ("input", "delta")),
    "splitting": (_report_splitting, ("input", "rho_hat", "cycle")),
    "sturmian": (_report_sturmian, ("gamma",)),
    "epsilon": (_report_epsilon, ("gamma",)),
}

# (option, test of its value, message), checked in this order on the
# options that the command has
CHECKS = [
    ("out", bool, "--out must be nonempty"),
    ("max_depth", lambda v: v >= 1, "--max-depth must be at least 1"),
    ("rho_hat", lambda v: v is None or (v > 0 and math.isfinite(v)),
     "--rho-hat must be a positive finite number"),
    ("delta", lambda v: v > 0 and math.isfinite(v), "--delta must be a positive finite number"),
    ("tail_fraction", lambda v: 0 < v < 1, "--tail-fraction must lie in (0, 1)"),
]


def _run(cfg, report, source):
    """Load the input, write the report's CSV and ``<out>.meta.json``, and
    exit 3 if the report is inconclusive."""
    started = time.monotonic()
    mset = fileio.load_matrix_set(cfg.input) if source == "input" else None
    counter = budget.BudgetCounter()
    header, rows, extra, reason = report(cfg, mset, counter)
    fileio.write_csv(cfg.out, header, rows)
    meta = {
        "tool": "jsrkit",
        "version": __version__,
        "config": vars(cfg),
        "budget_limit": counter.limit,
        "budget_used": counter.used,
        "wall_time_s": time.monotonic() - started,
    }
    fileio.write_metadata(cfg.out + ".meta.json", {**meta, **extra})
    if reason:
        return _fail("inconclusive", reason, EXIT_INCONCLUSIVE)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line, as for every other input error
        self.exit(EXIT_INPUT, "jsrkit: input: %s\n" % message)


def _parser(names):
    """The parser with the subparsers of the commands ``names`` only."""
    parser = _Parser(prog="jsrkit", description=__doc__)
    parser.add_argument("--version", action="version", version="jsrkit %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        cmd = sub.add_parser(name)
        for option, kwargs in OPTIONS.items():
            if option in ("out", "max_depth") + COMMANDS[name][1]:
                cmd.add_argument("--" + option.replace("_", "-"), dest=option, **kwargs)
    return parser


def build_parser():
    """The parser of every command."""
    return _parser(COMMANDS)


def run(cfg):
    """Run the command of a namespace parsed by :func:`build_parser`, whose
    options are the run's configuration and are echoed in meta.json."""
    report, own = COMMANDS[cfg.command]
    if not getattr(cfg, own[0]):
        return _fail("input", "--%s is required for %s" % (own[0], cfg.command), EXIT_INPUT)
    for option, valid, message in CHECKS:
        if hasattr(cfg, option) and not valid(getattr(cfg, option)):
            return _fail("input", message, EXIT_INPUT)
    try:
        return _run(cfg, report, own[0])
    # a malformed matrix-set file raises fileio.MatrixSetFormatError, a ValueError
    except (ValueError, IndexError, OSError) as exc:
        return _fail("input", str(exc), EXIT_INPUT)
    except budget.BudgetExceededError as exc:
        return _fail("inconclusive", str(exc), EXIT_INCONCLUSIVE)
    except budget.InternalInvariantError as exc:
        return _fail("internal", str(exc), EXIT_INTERNAL)
    except Exception as exc:  # no partial report: writes are atomic
        return _fail("internal", "%s: %s" % (type(exc).__name__, exc), EXIT_INTERNAL)


def main(argv=None):
    # a command named first is parsed by its subparser alone, which gives
    # the namespace and messages of the full parser; anything else, such
    # as --help or an unknown command, by the full parser
    argv = sys.argv[1:] if argv is None else list(argv)
    names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    return run(_parser(names).parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

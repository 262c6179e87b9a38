import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from jsrkit import cli, fileio
from jsrkit.bounds import BudgetCounter, MatrixSet, pruned_bounds
from jsrkit.fileio import MatrixSetFormatError, load_matrix_set, save_matrix_set
from jsrkit.gallery import antidiagonal_pair, golden_rotation_convergents, rank_one_pair

GOLDEN = ",".join("%d/%d" % (c.numerator, c.denominator) for c in golden_rotation_convergents())


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "jsrkit", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def fixtures(tmp_path):
    e1 = tmp_path / "antidiagonal.json"
    e2 = tmp_path / "rank_one.json"
    save_matrix_set(antidiagonal_pair(), str(e1))
    save_matrix_set(rank_one_pair(), str(e2))
    return {"e1": str(e1), "e2": str(e2), "dir": tmp_path}


def test_cli_import_leaves_scipy_unloaded(fixtures):
    # numpy is the only runtime dependency: with scipy blocked, importing
    # jsrkit and an adapted bounds run both succeed
    out = fixtures["dir"] / "blocked.csv"
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import jsrkit, jsrkit.cli\n"
        "sys.exit(jsrkit.cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "bounds", "--input", fixtures["e1"], "--out", str(out),
         "--norm", "adapted", "--max-depth", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 9


class TestMatrixSetFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(51)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        mset = MatrixSet([M, M @ M], labels=["a", "b"])
        path = str(tmp_path / "set.json")
        save_matrix_set(mset, path)
        loaded = load_matrix_set(path)
        for A, B in zip(mset.matrices, loaded.matrices):
            assert np.array_equal(A, B)
        assert loaded.labels == ["a", "b"]

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"d": 2,\n  "matrices": [}\n')
        with pytest.raises(MatrixSetFormatError, match="line 2 column"):
            load_matrix_set(str(path))

    def test_row_length_error_names_label(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "d": 2,
            "matrices": [
                {"label": "wide", "rows": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0]]]}
            ],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(MatrixSetFormatError, match="wide"):
            load_matrix_set(str(path))

    def test_non_finite_entry_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"d": 1, "matrices": [{"label": "x", "rows": [[[NaN, 0]]]}]}'
        )
        with pytest.raises(MatrixSetFormatError):
            load_matrix_set(str(path))

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "short.json"
        doc = {"d": 2, "matrices": [{"label": "s", "rows": [[[1, 0], [0, 0]]]}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(MatrixSetFormatError, match="'s' has 1 rows"):
            load_matrix_set(str(path))


class TestBoundsCommand:
    def test_closed_form_upper_column(self, fixtures, tmp_path):
        out = tmp_path / "bounds.csv"
        proc = run_cli(
            "bounds", "--input", fixtures["e2"], "--out", str(out), "--max-depth", "10"
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["n", "rho_plus_n", "rho_minus_n"]
        for line in lines[1:]:
            cells = line.split(",")
            n = int(cells[0])
            assert float(cells[1]) == pytest.approx(2 ** (1 + 1 / (2 * n)), rel=1e-9)
        meta = json.loads((tmp_path / "bounds.csv.meta.json").read_text())
        assert meta["config"]["max_depth"] == 10
        assert meta["budget_used"] > 0

    def test_seed_flag_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["bounds", "--out", "x.csv", "--seed", "1"])
        out = tmp_path / "word.csv"
        assert cli.main(["sturmian", "--gamma", GOLDEN, "--max-depth", "4", "--out", str(out)]) == 0
        config = json.loads((tmp_path / "word.csv.meta.json").read_text())["config"]
        assert "seed" not in config
        assert list(config) == ["command", "out", "max_depth", "gamma"]

    def test_missing_input_exits_two(self, tmp_path):
        proc = run_cli("bounds", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("jsrkit: input:")

    def test_bad_schema_exits_two_without_partial_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 2, "matrices": []}')
        out = tmp_path / "never.csv"
        proc = run_cli("bounds", "--input", str(bad), "--out", str(out))
        assert proc.returncode == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [
            '{"d": 1, "matrices": [{"label": "x", "rows": [[[true, false]]]}]}',
            '{"d": true, "matrices": [{"label": "x", "rows": [[[1, 0]]]}]}',
        ],
    )
    def test_json_booleans_exit_two(self, tmp_path, doc):
        # Python counts true/false as the ints 1/0; the schema does not
        bad = tmp_path / "bool.json"
        bad.write_text(doc)
        out = tmp_path / "never.csv"
        proc = run_cli("bounds", "--input", str(bad), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("jsrkit: input:")
        assert not out.exists()

    def test_budget_env_cap_exits_three(self, fixtures, tmp_path):
        out = tmp_path / "trunc.csv"
        env = dict(os.environ, JSRKIT_BUDGET="60")
        proc = subprocess.run(
            [sys.executable, "-m", "jsrkit", "bounds", "--input", fixtures["e2"],
             "--out", str(out), "--max-depth", "12"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 3
        assert "inconclusive" in proc.stderr
        assert out.exists()  # partial report kept, flagged in metadata

    def test_adapted_enclosure_of_a_complex_triple_is_sound(self, tmp_path):
        # the Nelder-Mead norm search read an upper value below the lower
        # value 2.1278401838255179 at n=5 here, and the run exited 4
        rng = np.random.default_rng(5)
        mats = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        path = str(tmp_path / "triple.json")
        save_matrix_set(MatrixSet(list(mats)), path)
        out = tmp_path / "triple.csv"
        argv = ["bounds", "--input", path, "--out", str(out), "--norm", "adapted",
                "--adapted-depth", "4", "--max-depth", "7"]
        assert cli.main(argv) == cli.EXIT_OK
        last = out.read_text().strip().splitlines()[-1].split(",")
        lower, upper, gap = float(last[3]), float(last[4]), float(last[5])
        assert lower <= 2.1278402 <= upper
        assert gap <= 0.01

    def test_worker_count_gives_identical_bytes(self, fixtures, tmp_path):
        outputs = []
        for w in (1, 2, 8):
            out = tmp_path / ("det%d.csv" % w)
            proc = run_cli(
                "bounds", "--input", fixtures["e1"], "--out", str(out),
                "--max-depth", "8", "--workers", str(w),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestBudgetLedger:
    """The adapted norm's probe and family are charged to the run's counter."""

    def _meta(self, fixtures, name, *extra):
        out = fixtures["dir"] / (name + ".csv")
        argv = ["bounds", "--input", fixtures["e2"], "--out", str(out), "--max-depth", "8"]
        code = cli.main(argv + list(extra))
        return code, json.loads((fixtures["dir"] / (name + ".csv.meta.json")).read_text())

    def _probe_and_family(self):
        # the probe _make_norm runs without --rho-hat, and the depth-6 family
        probe = BudgetCounter()
        pruned_bounds(rank_one_pair(), delta=0.05, max_depth=14, budget=probe)
        return probe.used + sum(2**k for k in range(1, 7))

    def test_adapted_run_reports_probe_and_family(self, fixtures):
        code_e, euclidean = self._meta(fixtures, "euclidean")
        code_a, adapted = self._meta(fixtures, "adapted", "--norm", "adapted")
        assert code_e == code_a == cli.EXIT_OK
        assert adapted["budget_used"] >= euclidean["budget_used"] + self._probe_and_family()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--norm", "adapted", "--max-depth", "8"],
            ["convergence", "--norm", "adapted", "--max-depth", "8"],
            ["splitting", "--cycle", "0", "--max-depth", "8"],
        ],
        ids=["bounds", "convergence", "splitting"],
    )
    def test_every_normalisation_records_the_one_probe(self, fixtures, argv):
        # the adapted norm and the splitting divide by the same rho_hat,
        # written to meta.json at full precision
        out = fixtures["dir"] / "probe.csv"
        assert cli.main(argv + ["--input", fixtures["e2"], "--out", str(out)]) == cli.EXIT_OK
        meta = json.loads((fixtures["dir"] / "probe.csv.meta.json").read_text())
        probe = pruned_bounds(rank_one_pair(), 0.05, max_depth=14)
        assert meta["rho_hat"] == 0.5 * (probe.lower + probe.upper)

    def test_budget_env_caps_the_whole_adapted_run(self, fixtures, monkeypatch):
        # room for the probe, the family and levels 1..5 of the sandwich only
        monkeypatch.setenv("JSRKIT_BUDGET", str(self._probe_and_family() + 100))
        code, meta = self._meta(fixtures, "capped", "--norm", "adapted")
        assert code == cli.EXIT_INCONCLUSIVE
        assert meta["truncated"] is True
        rows = (fixtures["dir"] / "capped.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 5


class TestInputErrors:
    def test_zero_denominator_in_gamma_exits_two(self, tmp_path):
        proc = run_cli("epsilon", "--gamma", "1/2,1/0", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("jsrkit: input:")
        assert "zero denominator" in proc.stderr

    @pytest.mark.parametrize("value", ["0", "-2", "nan"])
    @pytest.mark.parametrize("command", ["bounds", "convergence", "splitting"])
    def test_invalid_rho_hat_exits_two(self, fixtures, tmp_path, capsys, command, value):
        out = tmp_path / "never.csv"
        argv = [command, "--out", str(out), "--rho-hat=" + value, "--input", fixtures["e2"]]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("jsrkit: input: --rho-hat")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["pruned", "--input", "e1", "--norm", "adapted"],
            ["splitting", "--input", "e2", "--delta", "0.01"],
            ["epsilon", "--gamma", "1/2", "--rho-hat", "2"],
            ["bounds", "--input", "e1", "--gamma", "1/2"],
            ["bounds", "--input", "e1", "--norm", "adapted", "--delta", "0.1"],
        ],
        ids=["pruned-norm", "splitting-delta", "epsilon-rho-hat", "bounds-gamma", "adapted-delta"],
    )
    def test_option_the_command_does_not_read_exits_two(self, fixtures, tmp_path, capsys, argv):
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main([fixtures.get(a, a) for a in argv] + ["--out", str(out)])
        assert exc.value.code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "jsrkit: input: unrecognized arguments: %s %s\n" % tuple(argv[-2:])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["antidiagonal.json", "rank_one.json"]

    @pytest.mark.parametrize("value", ["1e-320", "1e-300"])
    def test_rho_hat_outside_the_float64_range_exits_two(self, fixtures, tmp_path, capsys, value):
        # the adapted norm cannot normalise the family by a subnormal
        # rho_hat (1e-320), nor keep its products finite at 1e-300
        out = tmp_path / "never.csv"
        argv = ["bounds", "--norm", "adapted", "--rho-hat", value, "--input", fixtures["e1"],
                "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert "rho_hat" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["pruned", "--delta", "nan"], "--delta"),
            (["pruned", "--delta", "inf"], "--delta"),
            (["convergence", "--tail-fraction", "2", "--max-depth", "8"], "--tail-fraction"),
        ],
        ids=["pruned-nan", "pruned-inf", "tail-fraction-2"],
    )
    def test_invalid_delta_or_tail_fraction_exits_two(self, fixtures, tmp_path, capsys, argv, flag):
        out = tmp_path / "never.csv"
        assert cli.main(argv + ["--input", fixtures["e1"], "--out", str(out)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("jsrkit: input: " + flag)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e6", "-5"])
    def test_malformed_budget_env_exits_two(self, fixtures, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("JSRKIT_BUDGET", value)
        out = tmp_path / "never.csv"
        assert cli.main(["bounds", "--input", fixtures["e1"], "--out", str(out)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("jsrkit: input: JSRKIT_BUDGET")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["splitting", "--cycle", "0"], ["bounds", "--norm", "adapted"]],
        ids=["splitting", "adapted-bounds"],
    )
    def test_probe_enclosing_zero_exits_two(self, tmp_path, capsys, argv):
        # a nilpotent family: the probe encloses the jsr in [0, 0], and no
        # rho_hat can be taken from it
        path = str(tmp_path / "nilpotent.json")
        save_matrix_set(MatrixSet([[[0.0, 0.0], [1.0, 0.0]]]), path)
        out = tmp_path / "never.csv"
        assert cli.main(argv + ["--input", path, "--out", str(out)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == "jsrkit: input: jsr probe enclosure [0, 0]; give --rho-hat\n"
        assert not out.exists()

    def test_explicit_rho_hat_is_used_by_splitting(self, fixtures, tmp_path):
        out = tmp_path / "split.csv"
        argv = ["splitting", "--input", fixtures["e2"], "--out", str(out), "--cycle", "0",
                "--max-depth", "8", "--rho-hat", "2.0"]
        assert cli.main(argv) == cli.EXIT_OK
        meta = json.loads((tmp_path / "split.csv.meta.json").read_text())
        assert meta["rho_hat"] == 2.0
        assert meta["budget_used"] == 0  # no pruned probe when --rho-hat is given


class TestOtherCommands:
    def test_convergence_reports_rate_near_one(self, fixtures, tmp_path):
        out = tmp_path / "conv.csv"
        svg = tmp_path / "conv.svg"
        proc = run_cli(
            "convergence", "--input", fixtures["e2"], "--out", str(out),
            "--max-depth", "12", "--svg", str(svg),
        )
        assert proc.returncode == 0, proc.stderr
        meta = json.loads((tmp_path / "conv.csv.meta.json").read_text())
        assert meta["fitted_rate"] == pytest.approx(1.0, abs=0.1)
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "depth, extra, fits",
        [(16, [], True), (16, ["--tail-fraction", "0.1"], False), (11, [], True)],
        ids=["default-tail", "short-tail", "eleven-rows"],
    )
    def test_convergence_fits_when_the_tail_has_six_rows(self, fixtures, tmp_path, depth, extra, fits):
        # the tail is 8 rows of 16 by default, 2 at 0.1 (which once exited 2
        # after computing every level, with no CSV), and 6 of 11 by default
        out = tmp_path / "conv.csv"
        argv = ["convergence", "--input", fixtures["e2"], "--out", str(out), "--max-depth", str(depth)]
        assert cli.main(argv + extra) == cli.EXIT_OK
        assert len(out.read_text().splitlines()) == depth + 1
        meta = json.loads((tmp_path / "conv.csv.meta.json").read_text())
        fit = {key: meta[key] for key in ("fitted_rate", "fit_r_squared", "gap_converged") if key in meta}
        assert len(fit) == (3 if fits else 0)
        if fits:
            assert fit["fitted_rate"] == pytest.approx(1.0, abs=0.1)

    def test_pruned_conclusive(self, fixtures, tmp_path):
        out = tmp_path / "pruned.csv"
        proc = run_cli(
            "pruned", "--input", fixtures["e1"], "--out", str(out),
            "--delta", "0.05", "--max-depth", "16",
        )
        assert proc.returncode == 0, proc.stderr
        row = out.read_text().strip().splitlines()[1].split(",")
        assert float(row[0]) <= math.sqrt(2) <= float(row[1]) + 1e-12

    def test_pruned_inconclusive_exits_three(self, fixtures, tmp_path):
        out = tmp_path / "pruned.csv"
        proc = run_cli(
            "pruned", "--input", fixtures["e2"], "--out", str(out),
            "--delta", "1e-9", "--max-depth", "3",
        )
        assert proc.returncode == 3
        assert out.exists()

    def test_budget_stopped_pruned_search_reports_its_depth(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "quad.json")
        save_matrix_set(MatrixSet(list(np.random.default_rng(1010).standard_normal((2, 4, 4)))), path)
        out = tmp_path / "pruned.csv"
        monkeypatch.setenv("JSRKIT_BUDGET", "2000")
        argv = ["pruned", "--input", path, "--out", str(out), "--delta", "0.001", "--max-depth", "40"]
        assert cli.main(argv) == cli.EXIT_INCONCLUSIVE
        header, row = out.read_text().strip().splitlines()
        deepest = int(dict(zip(header.split(","), row.split(",")))["deepest"])
        assert deepest < 40
        err = capsys.readouterr().err
        assert "at depth %d," % deepest in err
        assert "budget" in err

    @pytest.mark.parametrize("max_depth,spent", [(27, True), (26, False)])
    def test_budget_is_named_only_when_spent(self, tmp_path, capsys, monkeypatch, max_depth, spent):
        # under this budget the search caps the frontier of depth 26 and
        # stops at depth 27, which is also the depth limit in the first case
        path = str(tmp_path / "quad.json")
        save_matrix_set(MatrixSet(list(np.random.default_rng(1010).standard_normal((2, 4, 4)))), path)
        monkeypatch.setenv("JSRKIT_BUDGET", "2000")
        argv = ["pruned", "--input", path, "--out", str(tmp_path / "pruned.csv"),
                "--delta", "0.001", "--max-depth", str(max_depth)]
        assert cli.main(argv) == cli.EXIT_INCONCLUSIVE
        err = capsys.readouterr().err
        assert "at depth %d" % max_depth in err
        assert ("multiplication budget (2000) spent" in err) == spent

    def test_depth_limited_search_does_not_name_the_budget(self, tmp_path, capsys, monkeypatch):
        # the depth-10 search uses exactly this budget, and stops at its depth
        # limit as it would with an unlimited one
        path = str(tmp_path / "b.json")
        save_matrix_set(MatrixSet(list(np.random.default_rng(100).standard_normal((2, 3, 3)))), path)
        out = tmp_path / "pruned.csv"
        monkeypatch.setenv("JSRKIT_BUDGET", "654")
        argv = ["pruned", "--input", path, "--out", str(out), "--delta", "0.01", "--max-depth", "10"]
        assert cli.main(argv) == cli.EXIT_INCONCLUSIVE
        assert json.loads((tmp_path / "pruned.csv.meta.json").read_text())["budget_used"] == 654
        err = capsys.readouterr().err
        assert "at depth 10" in err
        assert "budget" not in err

    def test_splitting_metadata(self, fixtures, tmp_path):
        out = tmp_path / "split.csv"
        proc = run_cli(
            "splitting", "--input", fixtures["e1"], "--out", str(out),
            "--cycle", "0,1", "--max-depth", "12",
        )
        assert proc.returncode == 0, proc.stderr
        meta = json.loads((tmp_path / "split.csv.meta.json").read_text())
        assert meta["p"] == 1
        assert meta["rho_hat"] == pytest.approx(math.sqrt(2), rel=1e-6)
        assert meta["invariance_residual"] <= 1e-6

    @pytest.mark.parametrize("fixture, cycle", [("e2", "0"), ("e1", "0,1")])
    def test_splitting_splits_each_phase_once(self, fixtures, tmp_path, monkeypatch, fixture, cycle):
        # the residuals' phase splittings, one per phase at the horizon
        # max(4 r, 2 * 12), are the command's only splittings
        from jsrkit import cocycle

        horizons = []
        split = cocycle.finite_splitting

        def counted(*args, **kwargs):
            horizons.append(args[3])
            return split(*args, **kwargs)

        monkeypatch.setattr(cocycle, "finite_splitting", counted)
        argv = ["splitting", "--input", fixtures[fixture], "--out", str(tmp_path / "split.csv"),
                "--cycle", cycle, "--max-depth", "12"]
        assert cli.main(argv) == cli.EXIT_OK
        assert horizons == [24] * len(cycle.split(","))

    def test_sturmian_word_output(self, tmp_path):
        out = tmp_path / "word.csv"
        proc = run_cli("sturmian", "--gamma", GOLDEN, "--out", str(out), "--max-depth", "8")
        assert proc.returncode == 0, proc.stderr
        symbols = [int(line.split(",")[1]) for line in out.read_text().strip().splitlines()[1:]]
        assert set(symbols) <= {0, 1}
        assert symbols[0] == 0

    def test_epsilon_column_is_monotone(self, tmp_path):
        out = tmp_path / "eps.csv"
        proc = run_cli("epsilon", "--gamma", GOLDEN, "--out", str(out), "--max-depth", "13")
        assert proc.returncode == 0, proc.stderr
        values = [float(line.split(",")[1]) for line in out.read_text().strip().splitlines()[1:]]
        assert values == sorted(values, reverse=True)

    def test_epsilon_requires_gamma(self, tmp_path):
        proc = run_cli("epsilon", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2


def _reject_constant(token):
    raise ValueError("non-standard JSON token %s" % token)


BOUNDS_COLUMNS = "n,rho_plus_n,rho_minus_n,best_lower,best_upper,gap,argmax_word_plus,argmax_word_minus"

# one successful run of each command: its arguments and its CSV header
COMMAND_RUNS = {
    "bounds": (["--input", "e1", "--norm", "adapted", "--adapted-depth", "4"], BOUNDS_COLUMNS),
    "convergence": (["--input", "e2", "--max-depth", "12"], BOUNDS_COLUMNS),
    "pruned": (["--input", "e1", "--delta", "0.01"], "lower,upper,gap,conclusive,expanded,deepest"),
    "splitting": (["--input", "e2", "--cycle", "0", "--max-depth", "12"], "n,cauchy_dgr"),
    "sturmian": (["--gamma", GOLDEN], "i,symbol"),
    "epsilon": (["--gamma", GOLDEN, "--max-depth", "13"], "n,epsilon,certainty"),
}

META_KEYS = {"tool", "version", "config", "budget_limit", "budget_used", "wall_time_s"}

BOUNDS_CONFIG = ["command", "input", "out", "max_depth", "norm", "adapted_depth", "rho_hat",
                 "workers", "svg"]

# the options each command reads, in the order meta.json echoes them
COMMAND_CONFIG = {
    "bounds": BOUNDS_CONFIG,
    "convergence": BOUNDS_CONFIG + ["tail_fraction"],
    "pruned": ["command", "input", "out", "max_depth", "delta"],
    "splitting": ["command", "input", "out", "max_depth", "rho_hat", "cycle"],
    "sturmian": ["command", "out", "max_depth", "gamma"],
    "epsilon": ["command", "out", "max_depth", "gamma"],
}


class TestMetadata:
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_meta_json_is_strict_json(self, fixtures, tmp_path, command):
        args, header = COMMAND_RUNS[command]
        out = tmp_path / "report.csv"
        argv = [command] + [fixtures.get(a, a) for a in args] + ["--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert out.read_text().splitlines()[0] == header
        text = (tmp_path / "report.csv.meta.json").read_text()
        meta = json.loads(text, parse_constant=_reject_constant)
        assert META_KEYS <= set(meta)
        assert (meta["tool"], meta["config"]["command"]) == ("jsrkit", command)

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_config_holds_the_command_options_only(self, fixtures, tmp_path, command):
        args, _ = COMMAND_RUNS[command]
        out = tmp_path / "report.csv"
        argv = [command] + [fixtures.get(a, a) for a in args] + ["--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        config = json.loads((tmp_path / "report.csv.meta.json").read_text())["config"]
        assert list(config) == COMMAND_CONFIG[command]

    def test_non_finite_values_become_null(self, tmp_path):
        path = tmp_path / "meta.json"
        payload = {"a": math.nan, "b": [1.0, -math.inf, [math.inf]], "c": {"d": np.float64("nan")}}
        fileio.write_metadata(str(path), payload)
        got = json.loads(path.read_text(), parse_constant=_reject_constant)
        assert got == {"a": None, "b": [1.0, None, [None]], "c": {"d": None}}

    def test_splitting_on_the_rank_one_pair_writes_null(self, fixtures, tmp_path):
        # growth exponent -inf and undefined fits on the rank-one fixture
        out = tmp_path / "split.csv"
        argv = ["splitting", "--input", fixtures["e2"], "--out", str(out),
                "--cycle", "0", "--max-depth", "12"]
        assert cli.main(argv) == cli.EXIT_OK
        meta = json.loads((tmp_path / "split.csv.meta.json").read_text(), parse_constant=_reject_constant)
        assert None in meta["theta_estimates"]
        assert meta["xi_hat"] is None

    def test_ambiguous_growth_exponents_exit_three(self, tmp_path):
        # log(e^-0.02) lies within 2x of the zero threshold 0.02 log 2
        path = tmp_path / "ambiguous.json"
        save_matrix_set(MatrixSet([np.diag([1.0, math.exp(-0.02)])]), str(path))
        out = tmp_path / "split.csv"
        proc = run_cli("splitting", "--input", str(path), "--out", str(out),
                       "--cycle", "0", "--rho-hat", "1")
        assert proc.returncode == cli.EXIT_INCONCLUSIVE
        assert proc.stderr.startswith("jsrkit: inconclusive: growth exponents at levels [2]")
        assert out.read_text().splitlines() == ["n,cauchy_dgr"]

    def test_adapted_run_reports_both_family_sizes(self, fixtures, tmp_path):
        out = tmp_path / "adapted.csv"
        argv = ["bounds", "--input", fixtures["e1"], "--out", str(out), "--norm", "adapted",
                "--max-depth", "4"]
        assert cli.main(argv) == cli.EXIT_OK
        meta = json.loads((tmp_path / "adapted.csv.meta.json").read_text())
        assert (meta["full_family_size"], meta["family_size"]) == (127, 2)


def edge_family(tmp_path, exponent):
    """A seeded draw scaled by ``2**exponent``, saved: its products of
    length 4 underflow (exponent -300) or overflow (exponent 300) binary64."""
    path = str(tmp_path / "edge.json")
    save_matrix_set(MatrixSet(list(2.0**exponent * np.random.default_rng(0).standard_normal((2, 3, 3)))), path)
    return path


class TestBinary64Edges:
    def test_underflowed_pruned_enclosure_exits_four(self, tmp_path):
        proc = run_cli("pruned", "--input", edge_family(tmp_path, -300), "--out",
                       str(tmp_path / "pruned.csv"), "--delta", "1e-300")
        assert proc.returncode == cli.EXIT_INTERNAL
        assert proc.stderr.startswith("jsrkit: internal: lower bound")
        assert not (tmp_path / "pruned.csv").exists()

    def test_overflowing_products_exit_two_with_one_line(self, tmp_path):
        proc = run_cli("bounds", "--input", edge_family(tmp_path, 300), "--out",
                       str(tmp_path / "bounds.csv"), "--max-depth", "8")
        assert proc.returncode == cli.EXIT_INPUT
        assert proc.stderr == "jsrkit: input: products overflow binary64; scale the family\n"


class TestLazyImports:
    def _modules(self, script):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_package_import_loads_no_submodule_and_no_numpy(self):
        loaded = self._modules("import sys, jsrkit; print(*sys.modules)")
        assert "jsrkit" in loaded
        assert not [name for name in loaded if name.startswith("jsrkit.")]
        assert "numpy" not in loaded

    def test_epsilon_run_leaves_extremal_and_cocycle_unloaded(self, tmp_path):
        out = tmp_path / "eps.csv"
        loaded = self._modules(
            "import sys\n"
            "from jsrkit import cli\n"
            "assert cli.main(['epsilon', '--gamma', %r, '--max-depth', '8', '--out', %r]) == 0\n"
            "print(*sys.modules)\n" % (GOLDEN, str(out))
        )
        assert "jsrkit.shiftspace" in loaded
        assert "jsrkit.extremal" not in loaded and "jsrkit.cocycle" not in loaded

    def test_star_import_binds_every_public_name(self):
        import jsrkit

        namespace = {}
        exec("from jsrkit import *", namespace)
        assert len(jsrkit.__all__) == 49
        assert set(jsrkit.__all__) <= set(namespace)
        assert namespace["sandwich"] is jsrkit.bounds.sandwich
        assert namespace["extremal"] is sys.modules["jsrkit.extremal"]

    def test_unknown_name_raises_attribute_error(self):
        import jsrkit

        with pytest.raises(AttributeError, match="no_such_name"):
            jsrkit.no_such_name


class TestAtomicWrites:
    def test_no_temporary_residue(self, fixtures, tmp_path):
        out = tmp_path / "clean.csv"
        proc = run_cli("bounds", "--input", fixtures["e1"], "--out", str(out), "--max-depth", "4")
        assert proc.returncode == 0
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".jsrkit-")]
        assert leftovers == []

    def test_failed_write_leaves_nothing(self, fixtures, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        proc = run_cli("bounds", "--input", fixtures["e1"], "--out", str(target), "--max-depth", "3")
        assert proc.returncode != 0
        assert not target.exists()

    def test_atomic_write_replaces_existing(self, tmp_path):
        path = tmp_path / "file.txt"
        path.write_text("old")
        fileio.write_atomic(str(path), "new")
        assert path.read_text() == "new"

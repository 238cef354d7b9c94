"""Experiment drivers, CSV contract, determinism, CLI exit codes."""

import csv
import importlib.util
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitspectral
from bitspectral import (
    CSV_HEADER,
    ConfigError,
    NumericalError,
    default_config,
    estimation_error,
    rows_to_csv,
    run_experiment,
    select_matrix_kind,
)
from bitspectral import cli, harness
from bitspectral.cli import build_parser, config_from_args, main
from bitspectral.harness import RunConfig, check_csv_path, lowdim_trial, write_csv
from bitspectral.links import OneBitCS, OneBitPR


def small_lowdim_cfg(**kw):
    base = default_config("lowdim", "cs")
    merged = {**base.__dict__, "n": (200, 400), "p": (5,), "trials": 3, "seed": 9}
    merged.update(kw)
    return RunConfig(**merged)


class TestEstimationError:
    def test_exact_match(self):
        b = np.array([1.0, 0.0])
        assert estimation_error(b, b) == 0.0

    def test_antipodal(self):
        b = np.array([0.0, 1.0])
        assert estimation_error(-b, b, sign_invariant=True) == 0.0
        assert estimation_error(-b, b, sign_invariant=False) == 2.0

    def test_orthogonal(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        for flag in (False, True):
            assert estimation_error(a, b, flag) == pytest.approx(math.sqrt(2.0))

    def test_rejects_non_unit(self):
        with pytest.raises(ConfigError):
            estimation_error(np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    def test_rejects_vectors_of_different_lengths(self):
        with pytest.raises(ConfigError, match="shape"):
            estimation_error(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.inf, 0.0], [1.0, np.nan]])
    def test_rejects_non_finite(self, bad):
        good = np.array([1.0, 0.0])
        for args in ((np.array(bad), good), (good, np.array(bad))):
            with pytest.raises(ConfigError):
                estimation_error(*args, sign_invariant=True)


class TestMatrixSelection:
    def test_auto_uses_sum_below_median_threshold(self):
        assert select_matrix_kind(OneBitPR(0.4)) == "sum"
        assert select_matrix_kind(OneBitPR(1.0)) == "difference"

    def test_override_wins(self):
        assert select_matrix_kind(OneBitPR(0.4), override="diff") == "difference"
        assert select_matrix_kind(OneBitPR(1.0), override="sum") == "sum"

    def test_rejects_unknown_override(self):
        with pytest.raises(ConfigError,
                           match=r"matrix must be one of \('auto', 'diff', 'sum'\), got 'xyz'"):
            select_matrix_kind(OneBitPR(0.3), "xyz")

    def test_forced_override_still_checks_quad_order(self):
        with pytest.raises(ConfigError, match="quadrature order"):
            select_matrix_kind(OneBitPR(0.3), "sum", quad_order=3)


class TestRows:
    def test_lowdim_rows_shape_and_abscissa(self):
        cfg = small_lowdim_cfg()
        rows = run_experiment(cfg)
        assert len(rows) == 2 * 3
        for r in rows:
            assert r.abscissa == pytest.approx(math.sqrt(r.p / r.n), abs=1e-12)
            assert r.err is not None and r.err_signfree is not None
            assert r.lambda1_over4 is None
            assert r.err_signfree <= r.err + 1e-15

    def test_sparse_rows_abscissa(self):
        cfg = RunConfig(experiment="sparse", model="cs", sigma=(0.0,),
                        n=(400,), p=(30,), s=(3,), trials=2, seed=1,
                        admm_max_iter=40)
        rows = run_experiment(cfg)
        assert len(rows) == 2
        for r in rows:
            assert r.abscissa == pytest.approx(
                math.sqrt(r.s * math.log(r.p) / r.n), abs=1e-12)
            assert r.iters is not None and r.converged is not None

    def test_eigs_rows(self):
        cfg = RunConfig(experiment="eigs", model="flr", pe=(0.0, 0.2),
                        n=(300,), p=(5,), trials=2, seed=2)
        rows = run_experiment(cfg)
        assert len(rows) == 4
        for r in rows:
            assert r.param_name == "pe"
            assert r.lambda1_over4 >= r.lambda2_over4 > 0
            assert r.err is None
            assert r.abscissa == r.param_value

    def test_lowdim_rows_do_not_read_the_power_iteration_settings(self):
        # one exact solve: no cap to reach and no tolerance to meet
        rows = run_experiment(small_lowdim_cfg())
        assert all(r.iters == 1 and r.converged is True for r in rows)
        for tmax, tol in itertools.product((7, 40, 500), (0.0, 1e-10)):
            assert run_experiment(small_lowdim_cfg(tmax=tmax, tol=tol)) == rows

    @pytest.mark.parametrize("model, noise", [("cs", {"sigma": (0.5,)}),
                                              ("flr", {"pe": (0.1,)}),
                                              ("pr", {"theta": (1.0,)})],
                             ids=["cs", "flr", "pr"])
    def test_lowdim_estimate_is_the_top_eigenvector_of_its_draw(self, model, noise,
                                                                monkeypatch):
        # beta_hat is eigh's last eigenvector of the trial's own M, sign-normalized,
        # then oriented by its X^T y
        oriented = []

        def orient(beta_hat, xty):
            oriented.append(bitspectral.orient_by_first_moment(beta_hat, xty))
            return oriented[-1]

        monkeypatch.setattr(harness, "orient_by_first_moment", orient)
        cfg = small_lowdim_cfg(model=model, **noise)
        rows = run_experiment(cfg)
        assert len(oriented) == len(rows) == 6
        for r, got in zip(rows, oriented):
            rng, link, truth, kind = harness._draw(cfg, r.param_value, None, r.p, r.n, r.trial)
            mtx, xty = bitspectral.sample_moment(link, truth, r.n, kind, rng)
            top = np.linalg.eigh(mtx)[1][:, -1]
            want = bitspectral.orient_by_first_moment(bitspectral.sign_normalize(top), xty)
            np.testing.assert_array_equal(got, want)
            assert r.err_signfree == estimation_error(want, truth.beta_star, True)

    def test_pr_uses_sign_invariant_default_metric(self):
        cfg = RunConfig(experiment="lowdim", model="pr", theta=(1.0,),
                        n=(400,), p=(5,), trials=2, seed=3)
        for r in run_experiment(cfg):
            assert r.err == r.err_signfree

    @pytest.mark.parametrize("experiment", ["lowdim", "sparse"])
    def test_an_even_family_gets_the_sign_free_error(self, experiment, monkeypatch):
        # the rule is read off the family: a new even family needs its class
        # and a _MODELS row, and no edit to _row
        class EvenCS(OneBitCS):
            even = True

        # the sign of X^T y is turned over, so some signed err differs
        monkeypatch.setattr(harness, "orient_by_first_moment", lambda beta_hat, xty: -beta_hat)
        cfg = RunConfig(experiment=experiment, model="cs", sigma=(0.5,), n=(400,), p=(6,),
                        s=(2,), trials=2, seed=3)
        assert any(r.err > r.err_signfree for r in run_experiment(cfg))
        monkeypatch.setitem(harness._MODELS, "cs", harness._MODELS["cs"]._replace(
            link=lambda cfg, v: EvenCS(sigma=v)))
        assert all(r.err == r.err_signfree for r in run_experiment(cfg))


class TestDeterminism:
    def test_rerun_byte_identical(self):
        cfg = small_lowdim_cfg()
        a = rows_to_csv(run_experiment(cfg))
        b = rows_to_csv(run_experiment(cfg))
        assert a == b

    def test_parallel_and_serial_agree(self):
        cfg = small_lowdim_cfg()
        serial = run_experiment(cfg)
        jobs = [(p, n, t) for p in cfg.p for n in cfg.n for t in range(cfg.trials)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda j: lowdim_trial(cfg, cfg.sigma[0], None, *j),
                reversed(jobs),
            ))
        assert rows_to_csv(list(reversed(parallel))) == rows_to_csv(serial)

    def test_grid_edits_do_not_move_streams(self):
        wide = run_experiment(small_lowdim_cfg())
        narrow = run_experiment(small_lowdim_cfg(n=(400,)))
        wide_400 = [r for r in wide if r.n == 400]
        assert rows_to_csv(wide_400) == rows_to_csv(narrow)

    def test_trial_rows_independent_of_trial_count(self):
        few = run_experiment(small_lowdim_cfg(trials=2))
        many = run_experiment(small_lowdim_cfg(trials=3))
        assert rows_to_csv(few) == rows_to_csv([r for r in many if r.trial < 2])


class TestCsvFormat:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "experiment,model,param_name,param_value,n,p,s,trial,abscissa,"
            "lambda1_over4,lambda2_over4,err,err_signfree,iters,converged"
        )

    def test_row_rendering(self):
        cfg = small_lowdim_cfg(trials=1, n=(200,))
        text = rows_to_csv(run_experiment(cfg))
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert text.endswith("\n") and "\r" not in text
        cells = lines[1].split(",")
        assert len(cells) == 15
        assert cells[0] == "lowdim" and cells[1] == "cs"
        assert cells[6] == ""  # s unused
        assert cells[9] == "" and cells[10] == ""  # eigenvalue columns unused
        assert cells[14] in ("True", "False")
        # 17-significant-digit float cells survive an exact roundtrip
        assert float(cells[8]) == math.sqrt(5.0 / 200.0)

    def test_eigs_row_rendering(self):
        cfg = RunConfig(experiment="eigs", model="flr", pe=(0.1,), n=(300,),
                        p=(5,), trials=1, seed=4)
        line = rows_to_csv(run_experiment(cfg)).split("\n")[1]
        cells = line.split(",")
        assert cells[11] == cells[12] == cells[13] == cells[14] == ""
        assert float(cells[9]) > 0.0


class TestDiag:
    def test_positive_gap_output(self, capsys):
        cfg = RunConfig(experiment="diag", model="cs", sigma=(0.0,), p=(20,), s=(5,))
        rows = run_experiment(cfg)
        assert rows == []
        text = capsys.readouterr().out
        assert "kappa=0.784556" in text
        assert "phi=0.6366197" in text

    def test_diag_advisory_exits_zero_via_cli(self, capsys):
        assert main(["diag", "--model", "pr", "--theta", "0.4", "--p", "10"]) == 0
        assert "advisory" in capsys.readouterr().out

    def test_negative_gap_advisory(self, capsys):
        cfg = RunConfig(experiment="diag", model="pr", theta=(0.4,), p=(10,))
        run_experiment(cfg)
        text = capsys.readouterr().out
        assert "advisory" in text and "sum" in text

    def test_slow_rate_warning_near_half_flip(self, capsys):
        cfg = RunConfig(experiment="diag", model="flr", pe=(0.49,), p=(10,), s=(2,))
        run_experiment(cfg)
        assert "kappa near 1" in capsys.readouterr().out


# a fraction or a bool in each int field of RunConfig, a bool in each float field;
# the CLI refuses these too
INT_FAULTS = {
    "n": (200.5,), "p": (6.5,), "s": (2.5,), "trials": True, "seed": 1.5, "tmax": 2.5,
    "shat": 1.5, "admm_max_iter": 2.5, "quad_order": 9.5,
}
FLOAT_FAULTS = {
    "pe": (True,), "sigma": (True,), "theta": (np.True_,), "zeta": False, "tol": True,
    "rho_const": True, "admm_tol": np.True_, "admm_penalty": True,
}


class TestConfigValidation:
    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            run_experiment(small_lowdim_cfg(trials=0))

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            run_experiment(small_lowdim_cfg(n=()))

    def test_noise_grid_must_be_singleton_outside_eigs(self):
        with pytest.raises(ConfigError):
            run_experiment(small_lowdim_cfg(sigma=(0.1, 0.2)))

    def test_sparse_needs_s(self):
        with pytest.raises(ConfigError):
            cfg = RunConfig(experiment="sparse", model="cs", n=(100,), p=(10,), s=())
            run_experiment(cfg)

    def test_bad_model_parameter_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(small_lowdim_cfg(model="flr", pe=(0.7,)))

    @pytest.mark.parametrize("field", [*INT_FAULTS, *FLOAT_FAULTS])
    def test_non_integer_setting_refused_when_built(self, field):
        base = {"experiment": "sparse", "n": (200,), "p": (6,), "s": (2,)}
        is_int = field in INT_FAULTS
        bad = INT_FAULTS[field] if is_int else FLOAT_FAULTS[field]
        kind = "an integer" if is_int else "a real number"
        for value in (bad, ("3",) if isinstance(bad, tuple) else "3"):
            with pytest.raises(ConfigError, match=f"^{field}( grid value)? must be {kind}"):
                RunConfig(**{**base, field: value})
        # an int field takes the same value as a numpy integer, a float field
        # its default as a numpy float
        good, cast = (bad, np.int64) if is_int else (getattr(RunConfig, field), np.float64)
        good = tuple(map(cast, good)) if isinstance(good, tuple) else cast(good)
        RunConfig(**{**base, field: good})

    def test_every_int_field_is_among_the_faults(self):
        types = {f.name: harness._field_type(f.type)[0] for f in fields(RunConfig)}
        assert {name for name, cast in types.items() if cast is int} == set(INT_FAULTS)
        assert {name for name, cast in types.items() if cast is float} == set(FLOAT_FAULTS)


class TestCli:
    def test_diag_ok(self, capsys):
        assert main(["diag", "--model", "cs", "--sigma", "0"]) == 0
        assert "kappa" in capsys.readouterr().out

    def test_lowdim_writes_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["lowdim", "--model", "cs", "--sigma", "0.5", "--n", "200",
                     "--p", "4", "--trials", "2", "--seed", "5", "--out", str(out)])
        assert code == 0
        cfg = RunConfig(**{**default_config("lowdim", "cs").__dict__,
                           "sigma": (0.5,), "n": (200,), "p": (4,),
                           "trials": 2, "seed": 5})
        assert out.read_text() == rows_to_csv(run_experiment(cfg))

    def test_missing_out_directory_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "rows.csv"
        assert main(["lowdim", "--n", "200", "--p", "4", "--trials", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"config error: cannot write {out}: No such file or directory\n")
        assert list(tmp_path.iterdir()) == []

    def test_directory_out_is_a_config_error(self, tmp_path, capsys):
        assert main(["lowdim", "--n", "200", "--p", "4", "--trials", "1",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == (
            "", f"config error: cannot write {tmp_path}: Is a directory\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out, reason", [
        ("missing/out.csv", "No such file or directory"), (".", "Is a directory")])
    def test_bad_out_refused_before_any_trial(self, out, reason, tmp_path, monkeypatch, capsys):
        def trial(*args):
            raise AssertionError("a trial ran before --out was checked")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "lowdim_trial", trial)
        assert main(["lowdim", "--n", "200", "--p", "4", "--trials", "1", "--out", out]) == 2
        assert capsys.readouterr() == ("", f"config error: cannot write {out}: {reason}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("before", [None, "kept\n"], ids=["new", "existing"])
    def test_out_untouched_when_a_trial_fails(self, before, tmp_path, monkeypatch):
        # the early check neither leaves a new file behind nor empties an old one
        def trial(*args):
            raise NumericalError("no dominant direction")

        out = tmp_path / "rows.csv"
        if before is not None:
            out.write_text(before)
        monkeypatch.setattr(harness, "lowdim_trial", trial)
        assert main(["lowdim", "--n", "200", "--p", "4", "--trials", "1", "--out", str(out)]) == 3
        assert (out.read_text() if out.exists() else None) == before

    def test_config_error_exit_code(self, capsys):
        assert main(["lowdim", "--model", "flr", "--pe", "0.7", "--n", "100",
                     "--p", "4", "--trials", "1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, capsys):
        # a threshold this small makes every label +1, so the difference
        # estimator is the zero matrix
        code = main(["lowdim", "--model", "pr", "--theta", "1e-12",
                     "--matrix", "diff", "--n", "100", "--p", "4", "--trials", "1"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "model": "cs", "sigma": 0.5, "n": "200", "p": "4",
            "trials": 3, "seed": 5,
        }))
        out = tmp_path / "a.csv"
        assert main(["lowdim", "--config", str(cfgfile), "--trials", "2",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("\n") == 1 + 2  # header + 2 trial rows

    def test_tiny_admm_penalty_returns(self):
        # M / tau has eigenvalues near 1e4 at this penalty, where the old
        # bisection in fantope_project never closed its bracket.  A subprocess
        # with a timeout turns a hang into a failure.
        src = str(Path(bitspectral.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "bitspectral.cli", "sparse", "--model", "cs",
             "--sigma", "0", "--p", "20", "--s", "2", "--n", "400", "--trials", "1",
             "--admm-penalty", "0.0005", "--admm-max-iter", "5"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(CSV_HEADER)
        assert len(done.stdout.strip().split("\n")) == 2

    def test_import_loads_no_scipy(self):
        src = str(Path(bitspectral.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", "import sys, bitspectral.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["lowdim", "--tol", "nan"],
        ["lowdim", "--tol", "-1"],
        ["sparse", "--admm-tol", "nan"],
        ["sparse", "--admm-penalty", "inf"],
        ["sparse", "--admm-penalty", "nan"],
        # checked even where the experiment does not use them
        ["diag", "--admm-penalty", "nan", "--tol", "nan"],
        ["eigs", "--tol", "nan"],
        # a noise grid of another model, and a quadrature order under a forced estimator
        ["lowdim", "--model", "flr", "--sigma", "0.5"],
        ["lowdim", "--matrix", "sum", "--quad-order", "3"],
        # the flipped-logistic intercept under a model without one
        ["lowdim", "--model", "cs", "--zeta", "0.5"],
        ["lowdim", "--model", "pr", "--zeta", "0.5"],
    ])
    def test_bad_stopping_scalar_exit_code(self, argv, capsys):
        # a stop rule that can never hold, or a penalty ADMM cannot use, is a config error
        grid = ["--n", "100", "--p", "6", "--s", "2", "--trials", "1", "--admm-max-iter", "5"]
        assert main(argv + grid) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [
        {"n": 401.7}, {"trials": 2.9}, {"seed": 1.5}, {"trials": True}, {"p": [4, 5.5]},
    ])
    def test_config_file_integers_not_truncated(self, tmp_path, capsys, values):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"n": 100, "p": 4, "trials": 1, **values}))
        assert main(["lowdim", "--config", str(cfgfile)]) == 2
        assert "expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("values,expected", [
        ({"sigma": True}, "expected a number"),
        ({"zeta": False}, "expected a number"),
        ({"model": True}, "expected a string"),
        ({"n": [400, True]}, "expected an integer"),
    ])
    def test_config_file_rejects_booleans(self, tmp_path, capsys, values, expected):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"p": 4, "trials": 1, **values}))
        assert main(["diag", "--config", str(cfgfile)]) == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["out", "model", "matrix"])
    def test_config_file_rejects_a_number_for_a_string_field(self, key, tmp_path, monkeypatch,
                                                             capsys):
        # {"out": 5} wrote the CSV to a file named 5, and {"model": 5} was refused as '5'
        monkeypatch.chdir(tmp_path)
        Path("run.json").write_text(json.dumps({"n": 100, "p": 4, "trials": 1, key: 5}))
        assert main(["lowdim", "--config", "run.json"]) == 2
        assert capsys.readouterr().err == (
            f"config error: bad value for {key}: expected a string, got 5\n")
        assert os.listdir() == ["run.json"]

    @pytest.mark.parametrize("out", [True, 5], ids=["bool", "int"])
    def test_out_that_is_not_a_string_is_refused(self, out):
        with pytest.raises(ConfigError, match=f"^out must be a path string or None, got {out!r}$"):
            RunConfig(experiment="lowdim", out=out)

    @pytest.mark.parametrize("path", [True, 5], ids=["bool", "int"])
    def test_csv_path_that_is_not_a_string_is_refused_before_opening(self, path, capsys):
        # open(True) is file descriptor 1: write_csv wrote the rows there and closed stdout
        for call in (check_csv_path, lambda p: write_csv([], p)):
            with pytest.raises(ConfigError, match=f"^the CSV path must be a string, got {path!r}$"):
                call(path)
        print("stdout still open")
        assert capsys.readouterr().out == "stdout still open\n"

    @pytest.mark.parametrize("values", [{"zeta": 10**400}, {"sigma": [0.5, -10**400]}],
                             ids=["zeta", "sigma-grid"])
    def test_config_file_integer_beyond_a_float_is_a_config_error(self, tmp_path, capsys,
                                                                   values):
        # json reads the literal as an int; float() of it raised OverflowError, a crash
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"model": "flr" if "zeta" in values else "cs", **values}))
        assert main(["diag", "--config", str(cfgfile)]) == 2
        assert "int too large to convert to float" in capsys.readouterr().err

    def test_every_field_has_a_flag_and_a_key(self, tmp_path, capsys):
        common = {
            "n": (100, 200), "p": (3,), "s": (1, 2), "trials": 4,
            "seed": 7, "tmax": 9, "tol": 0.001, "rho_const": 0.5, "shat": 2,
            "admm_tol": 0.0001, "admm_penalty": 2.0, "admm_max_iter": 11,
            "matrix": "sum", "quad_order": 16, "out": "rows.csv",
        }
        # one valid run per model, each setting its own fields; cs is the default model
        runs = [{"model": "flr", "pe": (0.2,), "zeta": 0.25}, {"sigma": (0.4,)},
                {"model": "pr", "theta": (0.5,)}]
        assert set(common).union(*runs) == {f.name for f in fields(RunConfig)} - {"experiment"}
        defaults = default_config("lowdim")
        cfgfile = tmp_path / "run.json"
        for run in runs:
            values = {**run, **common}
            expected = RunConfig(experiment="lowdim", **values)
            assert all(getattr(expected, key) != getattr(defaults, key) for key in values)

            argv = ["lowdim"]
            for key, value in values.items():
                argv += ["--" + key.replace("_", "-"),
                         ",".join(map(str, value)) if isinstance(value, tuple) else str(value)]
            assert config_from_args(build_parser().parse_args(argv)) == expected

            # integral floats are integers too
            cfgfile.write_text(json.dumps({**values, "n": [100.0, 200], "trials": 4.0}))
            args = build_parser().parse_args(["lowdim", "--config", str(cfgfile)])
            assert config_from_args(args) == expected

        # experiment is the subcommand, not a key
        cfgfile.write_text(json.dumps({"experiment": "eigs"}))
        assert main(["lowdim", "--config", str(cfgfile)]) == 2
        assert "unknown config key 'experiment'" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({"modle": "cs"}))
        assert main(["diag", "--config", str(cfgfile)]) == 2

    def test_settled_initializer_counts_as_converged(self, capsys):
        # 75 ADMM iterations stop short of the residual tolerance here; the
        # initializer settles first, and the truncated power method meets tol
        assert main(["sparse", "--model", "cs", "--sigma", "0", "--s", "3", "--p", "60",
                     "--n", "1000,4000", "--trials", "4", "--seed", "3",
                     "--admm-max-iter", "75"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 8
        assert [r["converged"] for r in rows] == ["True"] * 8

    def test_eigs_stdout(self, capsys):
        assert main(["eigs", "--model", "flr", "--pe", "0,0.2", "--n", "300",
                     "--p", "4", "--trials", "1", "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER)
        assert len(out.strip().split("\n")) == 3


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


class TestHeapPolicy:
    """``cli.main`` fixes glibc's malloc thresholds; the library leaves them alone."""

    @pytest.mark.skipif(not _on_glibc(), reason="the thresholds are glibc's")
    def test_a_second_run_reuses_the_first_runs_heap(self, tmp_path):
        # each flr trial at n = 125,448 frees about 2.6 MiB at the top of the
        # heap; under glibc's dynamic thresholds that is trimmed, and the next
        # trial faults it in again, about 640 minor faults per trial
        src = str(Path(bitspectral.__file__).resolve().parent.parent)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        trials = 5
        argv = ["lowdim", "--model", "flr", "--pe", "0.1", "--n", "125448", "--p", "20",
                "--trials", str(trials), "--seed", "0", "--out", str(tmp_path / "rows.csv")]
        script = ("import resource, sys\n"
                  "from bitspectral import cli\n"
                  "assert cli.main(sys.argv[1:]) == 0\n"
                  "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                  "assert cli.main(sys.argv[1:]) == 0\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 50 * trials, done.stdout

    @pytest.mark.parametrize("libc", [None, ValueError, "glibc 2.36"])
    def test_a_no_op_off_glibc_or_without_mallopt(self, libc, monkeypatch):
        def confstr(name):
            assert name == "CS_GNU_LIBC_VERSION"
            if libc is ValueError:
                raise ValueError("unrecognized configuration name")
            return libc

        opened = []
        monkeypatch.setattr(cli.os, "confstr", confstr)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: opened.append(name) or object())
        cli._keep_freed_heap()
        assert opened == ([None] if libc == "glibc 2.36" else [])

    def test_sets_both_thresholds_where_mallopt_exists(self, monkeypatch):
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
        cli._keep_freed_heap()
        # M_MMAP_THRESHOLD at 32 MiB, then M_TRIM_THRESHOLD at twice that
        assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]

    def test_only_cli_main_sets_the_allocator(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append(None))
        assert run_experiment(small_lowdim_cfg(trials=1))
        assert calls == []
        assert main(["lowdim", "--n", "200", "--p", "4", "--trials", "1"]) == 0
        assert calls == [None]
        assert capsys.readouterr().out.startswith(CSV_HEADER)


class TestStatisticalExamples:
    def test_lowdim_large_sample_smoke(self):
        # pre-registered calibration: error well under 0.02 at n=1e6, p=5
        cfg = small_lowdim_cfg(n=(1_000_000,), p=(5,), trials=1, seed=17)
        row = run_experiment(cfg)[0]
        print(f"n=1e6 smoke error: {row.err_signfree:.5f}")
        assert row.err_signfree <= 0.02

    def test_eigs_zero_gap_at_median_threshold(self):
        from bitspectral import theta_median
        tm = theta_median()
        for forced in ("diff", "sum"):
            cfg = RunConfig(experiment="eigs", model="pr", theta=(tm,),
                            n=(3000,), p=(20,), trials=10, seed=18, matrix=forced)
            rows = run_experiment(cfg)
            mean_gap = float(np.mean([r.lambda1_over4 - r.lambda2_over4 for r in rows]))
            assert abs(mean_gap) < 0.1, (forced, mean_gap)

    def test_degenerate_sparse_matches_lowdim_distribution(self):
        # s = p, s_hat = p, rho = 0 degenerates the pipeline to plain power
        # iteration; across trials the error sample should be statistically
        # indistinguishable from the dense experiment at the same (p, n)
        from scipy.stats import ks_2samp
        p, n, trials = 10, 1500, 50
        sparse_cfg = RunConfig(experiment="sparse", model="cs", sigma=(0.0,),
                               n=(n,), p=(p,), s=(p,), trials=trials, seed=19,
                               rho_const=0.0, shat=p, admm_max_iter=100)
        dense_cfg = RunConfig(experiment="lowdim", model="cs", sigma=(0.0,),
                              n=(n,), p=(p,), trials=trials, seed=19)
        sparse_errs = [r.err_signfree for r in run_experiment(sparse_cfg)]
        dense_errs = [r.err_signfree for r in run_experiment(dense_cfg)]
        stat = ks_2samp(sparse_errs, dense_errs)
        assert stat.pvalue > 0.01, (stat, np.median(sparse_errs), np.median(dense_errs))


# Each fault sits behind a good value in its grid, or in a run with no trials,
# so a check at the wrong grid point, or only inside a trial, lets it through.
GRID_FAULTS = [
    (["sparse", "--s", "3", "--p", "5,2"], "s grid value must be <= 2, got 3"),
    (["sparse", "--s", "2", "--shat", "4", "--p", "5,3"], "shat must be <= 3, got 4"),
    (["sparse", "--s", "1", "--p", "3,1"], "dimension must be >= 2, got 1"),
    (["lowdim", "--n", "40,1", "--p", "3"], "n grid value must be >= 2, got 1"),
    (["diag", "--p", "0"], "dimension must be >= 1, got 0"),
    (["diag", "--p", "5", "--s", "9"], "s grid value must be <= 5, got 9"),
]


@pytest.mark.parametrize("argv,message", GRID_FAULTS,
                         ids=[" ".join(argv) for argv, _ in GRID_FAULTS])
def test_grid_fault_refused_when_built(argv, message, monkeypatch, capsys):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    for name in ("eigs_trial", "lowdim_trial", "sparse_trial"):
        monkeypatch.setattr(harness, name, no_trial)
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_args(build_parser().parse_args(argv))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


# each grid of an experiment row, by its name in the row: its RunConfig field and two values
ROW_GRIDS = {"noise": ("sigma", (0.5, 0.6)), "s": ("s", (1, 2)), "p": ("p", (4, 5)),
             "n": ("n", (40, 60))}


@pytest.mark.parametrize("experiment", list(harness._EXPERIMENTS))
def test_experiment_row_rules_hold_before_any_trial(experiment):
    """What a row reads and crosses, and its smallest p, decide which grids a config may set;
    RunConfig applies each rule when it is built."""
    row = harness._EXPERIMENTS[experiment]
    base = {"experiment": experiment, **{field: vals[:1] for field, vals in ROW_GRIDS.values()}}
    for grid, (field, values) in ROW_GRIDS.items():
        if grid not in row.reads:  # ignored, whatever it holds
            RunConfig(**{**base, field: values})
            RunConfig(**{**base, field: ()})
        elif grid in row.crosses:
            RunConfig(**{**base, field: values})
            with pytest.raises(ConfigError, match=f"^{field} grid must be nonempty$"):
                RunConfig(**{**base, field: ()})
        else:
            with pytest.raises(ConfigError, match=re.escape(
                    f"experiment {experiment!r} takes a single {grid} value, got grid {values}")):
                RunConfig(**{**base, field: values})
    RunConfig(**{**base, "p": (row.min_p,)})
    with pytest.raises(ConfigError, match=f"^dimension must be >= {row.min_p}, "
                                          f"got {row.min_p - 1}$"):
        RunConfig(**{**base, "p": (row.min_p - 1,)})


# flag -> a malformed value; argparse once typed these itself and printed its usage
FLAG_FAULTS = {"trials": "x", "tmax": "2.5", "zeta": "abc", "model": "xyz", "matrix": "foo"}


@pytest.mark.parametrize("field", FLAG_FAULTS)
def test_a_flag_fails_as_the_same_string_in_a_config_file(field, tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.setattr(harness, "lowdim_trial", None)  # no trial may run
    assert main(["lowdim", "--" + field, FLAG_FAULTS[field]]) == 2
    from_flag = capsys.readouterr()
    assert from_flag.out == "" and from_flag.err.startswith("config error: ")
    (tmp_path / "run.json").write_text(json.dumps({field: FLAG_FAULTS[field]}))
    assert main(["lowdim", "--config", str(tmp_path / "run.json")]) == 2
    assert capsys.readouterr() == from_flag


def test_trials_reached_by_module_attribute(monkeypatch):
    """The loop looks each trial function up by name, where perfbench's tracer patches it."""
    calls = []
    for name in ("lowdim_trial", "sparse_trial"):
        def counted(*args, _name=name, _trial=getattr(harness, name)):
            calls.append(_name)
            return _trial(*args)

        monkeypatch.setattr(harness, name, counted)
    run_experiment(RunConfig(experiment="lowdim", n=(40, 60), p=(3, 4), trials=3))
    run_experiment(RunConfig(experiment="sparse", s=(2,), p=(6,), n=(100, 200), trials=2,
                             admm_max_iter=5))
    assert calls == ["lowdim_trial"] * (2 * 2 * 3) + ["sparse_trial"] * (2 * 2)


ROW_ORDER_GRIDS = {
    "eigs": dict(sigma=(0.0, 0.5), n=(60,), p=(4,)),
    "lowdim": dict(n=(40, 60), p=(3, 4)),
    "sparse": dict(s=(2, 3), p=(6, 8), n=(100,), admm_max_iter=5),
}


@pytest.mark.parametrize("experiment", list(ROW_ORDER_GRIDS))
def test_rows_follow_the_crossed_grids(experiment):
    """Rows come noise value, s (sparse only), p, n, trial; eigs and lowdim ignore s."""
    cfg = RunConfig(experiment=experiment, trials=2, seed=3, **ROW_ORDER_GRIDS[experiment])
    rows = run_experiment(cfg)
    s_grid = cfg.s if experiment == "sparse" else (None,)
    assert [(r.param_value, r.s, r.p, r.n, r.trial) for r in rows] == list(
        itertools.product(cfg.sigma, s_grid, cfg.p, cfg.n, range(cfg.trials)))
    if experiment != "sparse":
        assert rows_to_csv(run_experiment(replace(cfg, s=(2, 3)))) == rows_to_csv(rows)


@pytest.mark.parametrize("experiment", list(ROW_ORDER_GRIDS))
def test_no_sampled_trial_draws_the_covariates(experiment, monkeypatch):
    """Every trial draws (M, X^T y) through sample_moment, never a Dataset and its moment."""
    def refuse(*args, **kwargs):
        raise AssertionError("a trial drew the n-by-p covariates")

    for module, name in ((harness, "generate_dataset"), (harness, "second_moment"),
                         (bitspectral.synth, "generate_dataset"),
                         (bitspectral.estimator, "second_moment")):
        monkeypatch.setattr(module, name, refuse)
    assert run_experiment(RunConfig(experiment=experiment, trials=2, **ROW_ORDER_GRIDS[experiment]))


def test_sparse_trial_peak_memory_stays_below_the_covariates():
    # (s, p, n) = (5, 200, 4000): the covariates alone would be n p 8 bytes
    # = 6.4 MB of float64.  The draw, ADMM and the power stage peak at 2.42
    # MB, 7.57 p-by-p arrays of 320 kB (M and ADMM's six), because M is built
    # and ADMM runs in buffers they already hold: ADMM keeps M/tau but not the
    # M/s it is handed, reduces the projection's argument in place and writes
    # each Pi into one buffer.  The bound of 8 arrays leaves 0.43 of one as
    # margin, and one more p-by-p array held through ADMM breaks it, as the
    # 9.47 of a copy of the argument and a fresh Pi per step did
    s, p, n = 5, 200, 4000
    cfg = RunConfig(experiment="sparse", s=(s,), p=(p,), n=(n,))
    tracemalloc.start()
    try:
        harness.sparse_trial(cfg, cfg.sigma[0], s, p, n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * p * 8, peak
    assert peak < 8 * p * p * 8, peak / (p * p * 8)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    experiment=st.sampled_from(["eigs", "lowdim", "sparse", "diag"]),
    model=st.sampled_from(["flr", "cs", "pr"]),
    shat=st.none() | st.integers(1, 7),
    matrix=st.sampled_from(["auto", "diff", "sum"]),
    admm_max_iter=st.integers(1, 5),
)
def test_a_config_that_builds_runs(data, experiment, model, shat, matrix, admm_max_iter):
    """Every rule of a run is checked when its config is built: none is left to a trial."""
    def grid(values, shortest=1, longest=2):
        return tuple(data.draw(st.lists(values, min_size=shortest, max_size=longest)))

    # grids shaped for the experiment, values free to break its rules
    eigs, diag = experiment == "eigs", experiment == "diag"
    noise = grid(st.floats(0.0, 0.55), longest=2 if eigs else 1)
    # hypothesis favours the first value listed, so a valid one comes first
    n = grid(st.sampled_from([24, 40, 9, 3, 2, 1]), longest=1 if eigs else 2)
    p = grid(st.sampled_from([4, 6, 3, 2, 5, 1, 0]), longest=1 if eigs or diag else 2)
    s = grid(st.sampled_from([1, 2, 3, 4, 5, 6, 0]), shortest=0 if diag else 1,
             longest=1 if diag else 2)
    noise_field = {"flr": "pe", "cs": "sigma", "pr": "theta"}[model]
    try:
        cfg = RunConfig(experiment=experiment, model=model, n=n, p=p, s=s, shat=shat,
                        matrix=matrix, admm_max_iter=admm_max_iter, trials=1,
                        **{noise_field: noise})
    except ConfigError:
        return
    try:
        run_experiment(cfg)
    except NumericalError:
        pass


def test_tracer_targets_resolve():
    """Every (module, attribute) that perfbench's tracer patches exists."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr, *_ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, missing


def test_golden_configs_end_in_an_exit_code_not_a_crash():
    """tools/golden.py on this tree: each config prints one line, with exit code 0, 2 or 3."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("_golden", root / "tools" / "golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    done = subprocess.run([sys.executable, str(root / "tools" / "golden.py"), str(root)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(golden.CONFIGS)
    bad = [line for line in lines if line.split(" ", 1)[0] not in ("0", "2", "3")]
    assert not bad, "\n".join(bad) + "\n" + done.stderr

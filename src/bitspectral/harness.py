"""Experiment drivers and CSV emission for the desk-scale numerical studies.

Four experiments, each a row of ``_EXPERIMENTS``, reached only through
``run_experiment``.  A row holds the runner, the default grids, the grids the
experiment reads (of the model's noise grid, s, p and n), those it crosses,
its smallest p and its CLI help.  ``RunConfig``, ``default_config``,
``_run_trials`` and the CLI read the row, and nothing else branches on an
experiment's name:

* ``eigs``   -- top-two eigenvalues of the (scaled) second moment across a
  noise-parameter grid; per-trial rows.
* ``lowdim`` -- dense recovery error across a (p, n) grid, abscissa sqrt(p/n).
* ``sparse`` -- sparse-pipeline recovery error across an (s, p, n) grid,
  abscissa sqrt(s log p / n).
* ``diag``   -- closed-form moment summary and theory constants, printed to
  stdout; no sampling.

The three sampled experiments share one loop, ``_run_trials``, over noise
value, s (where the row crosses it, else None), p, n and trial, in that
order.  It calls ``<experiment>_trial(cfg, param_value, s, p, n, trial)`` by
name, so a module attribute set in its place is the one called.

A ``RunConfig`` is checked whole when it is built, before any trial: a grid
the row crosses must be nonempty, one it reads but does not cross takes one
value (an empty s grid, a dense truth, is allowed where s is not crossed),
one it does not read is ignored, and p may not fall below the row's smallest
p, 2 where the top two eigenvalues are read.  Each trial of each grid point
draws from its own derived stream keyed by the grid point's parameter values
and the trial index, so results are independent of execution order and
stable under grid edits.  Reruns with the same config and seed produce
byte-identical CSV.

CSV columns (unused cells empty, floats with 17 significant digits):

    experiment,model,param_name,param_value,n,p,s,trial,abscissa,
    lambda1_over4,lambda2_over4,err,err_signfree,iters,converged

No trial draws the n-by-p covariates: each takes its moment matrix and
X^T y from ``sample_moment``, which draws the index values and labels of all
n rows and then O(p^2) normals for the weighted pairs' covariate
differences, in the law ``generate_dataset`` gives them.  ``sparse`` hands
that matrix to ``sparse_recover``.  In ``lowdim`` and ``sparse`` the sign of
the estimate is set by X^T y (``orient_by_first_moment``).

``lowdim`` takes the top eigenvector of M from one ``np.linalg.eigh``, an
exact solve with no cap: its rows report ``iters`` 1 and ``converged`` True,
and ``--tmax`` and ``--tol``, checked as for every experiment, do not reach
it.  A zero M has no dominant direction and raises ``NumericalError``.

The noisy-sign model is parameterized by the noise standard deviation sigma;
a variance of 0.1 (the usual figure setting, sometimes written delta^2)
corresponds to sigma = sqrt(0.1).
"""

import math
import os
import sys
import typing
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import (ConfigError, NumericalError, _check_choice, _check_int, _check_real,
                     check_matrix)
from .estimator import KIND_DIFFERENCE, KIND_SUM, sample_moment
# no trial calls these four; perfbench/tracing.py patches them as harness attributes
from .estimator import second_moment, second_moment_sum
from .spectral import power_method
from .synth import generate_dataset
from .links import (
    DEFAULT_QUAD_ORDER,
    FlippedLogistic,
    LinkModel,
    OneBitCS,
    OneBitPR,
    moments,
    theory_diagnostics,
)
from .rng import derive_rng
from .sparse import SparseConfig, sparse_recover
from .spectral import (RecoveryReport, _check_unit, orient_by_first_moment, sign_normalize,
                       top_two_eigs)
from .synth import sample_beta_dense, sample_beta_sparse


class _Model(NamedTuple):
    params: tuple  # the RunConfig fields the link reads; the first holds the noise grid
    link: Callable  # (cfg, noise value) -> LinkModel
    sweep: tuple  # the default noise grid of an experiment that crosses it

    @property
    def noise(self) -> str:
        return self.params[0]


_MODELS = {
    "flr": _Model(("pe", "zeta"), lambda cfg, v: FlippedLogistic(zeta=cfg.zeta, pe=v),
                  (0.0, 0.1, 0.2, 0.3, 0.4)),
    "cs": _Model(("sigma",), lambda cfg, v: OneBitCS(sigma=v), (0.0, 0.5, 1.0, 1.5, 2.0)),
    "pr": _Model(("theta",), lambda cfg, v: OneBitPR(theta=v), (0.25, 0.45, 0.675, 0.9, 1.2)),
}
# --matrix value -> forced estimator kind; "auto" picks by the sign of phi
_MATRIX_KINDS = {"auto": None, "diff": KIND_DIFFERENCE, "sum": KIND_SUM}


def _field_type(annotation) -> tuple[type, bool]:
    """Scalar type of a field and whether it is a grid (``tuple[T, ...]``)."""
    args = [a for a in typing.get_args(annotation) if a not in (type(None), Ellipsis)]
    return (args[0] if args else annotation), typing.get_origin(annotation) is tuple


@dataclass(frozen=True)
class RunConfig:
    """One experiment run; grids are tuples.  Checked whole when built, before any trial."""

    experiment: str
    model: str = "cs"
    pe: tuple[float, ...] = (0.1,)
    sigma: tuple[float, ...] = (math.sqrt(0.1),)  # noise variance 0.1
    theta: tuple[float, ...] = (1.0,)
    zeta: float = 0.0
    n: tuple[int, ...] = (3000,)
    p: tuple[int, ...] = (20,)
    s: tuple[int, ...] = ()
    trials: int = 1
    seed: int = 0
    tmax: int = SparseConfig.t_max
    tol: float = SparseConfig.tol
    rho_const: float = 1.0
    shat: int | None = None
    admm_tol: float = SparseConfig.admm_tol
    admm_penalty: float = SparseConfig.admm_penalty
    admm_max_iter: int = SparseConfig.admm_max_iter
    matrix: str = "auto"
    quad_order: int = DEFAULT_QUAD_ORDER
    out: str | None = None  # CSV path; None writes to stdout

    def __post_init__(self):
        _check_choice(self.experiment, "experiment", _EXPERIMENTS)
        _check_choice(self.model, "model", _MODELS)
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string or None, got {self.out!r}")
        for f in fields(self):  # every int and float field and grid value, typed by its annotation
            cast, is_grid = _field_type(f.type)
            value = getattr(self, f.name)
            if cast in (int, float) and value is not None:
                if is_grid and not isinstance(value, tuple):
                    raise ConfigError(f"{f.name} takes a tuple of values, got {value!r}")
                for v in value if is_grid else (value,):
                    what = f"{f.name} grid value" if is_grid else f.name
                    (_check_int if cast is int else _check_real)(v, what)
        _check_int(self.trials, "trials", 1)
        row = _EXPERIMENTS[self.experiment]
        for name in row.reads:  # an empty s grid alone is allowed where s is not crossed
            values = _grid(self, name)
            if not values and (name in row.crosses or name != "s"):
                raise ConfigError(f"{_grid_field(self, name)} grid must be nonempty")
            if len(values) > 1 and name not in row.crosses:
                raise ConfigError(f"experiment {self.experiment!r} takes a single {name} value, "
                                  f"got grid {values}")
        own = _MODELS[self.model].params  # any other model's field must keep its default
        for name in (name for spec in _MODELS.values() for name in spec.params if name not in own):
            if getattr(self, name) != getattr(RunConfig, name):
                raise ConfigError(f"{name} is not a parameter of model {self.model!r}")
        for value in _grid(self, "noise"):  # the noise range, the matrix override, quad order
            select_matrix_kind(_make_model(self, value), self.matrix, self.quad_order)
        # every solver setting is checked, whichever experiment uses it, rho_const by its name
        _check_real(self.rho_const, "rho_const", 0)
        _sparse_config(self, self.rho_const, 1 if self.shat is None else self.shat)
        # each grid value against every point it is crossed with, so its smallest p and n
        p = min(self.p)
        _check_int(p, "dimension", row.min_p)
        for s in self.s if "s" in row.reads else ():
            _check_int(s, "s grid value", 1, p)
        if "n" in row.reads:
            _check_int(min(self.n), "n grid value", 2)
        if "s" in row.crosses and self.shat is not None:
            _check_int(self.shat, "shat", 1, p)


@dataclass(frozen=True)
class ExperimentRow:
    """One CSV row; None means the column is unused for this experiment."""

    experiment: str
    model: str
    param_name: str
    param_value: float
    n: int | None
    p: int
    s: int | None
    trial: int | None
    abscissa: float | None
    lambda1_over4: float | None = None
    lambda2_over4: float | None = None
    err: float | None = None
    err_signfree: float | None = None
    iters: int | None = None
    converged: bool | None = None


_COLUMNS = tuple(f.name for f in fields(ExperimentRow))
CSV_HEADER = ",".join(_COLUMNS)


def default_config(experiment: str, model: str = "cs", **overrides) -> RunConfig:
    """Config with the standard desk-scale grids for the given experiment."""
    _check_choice(experiment, "experiment", _EXPERIMENTS)
    _check_choice(model, "model", _MODELS)
    grids = dict(_EXPERIMENTS[experiment].grids)
    if "noise" in _EXPERIMENTS[experiment].crosses:  # a crossed noise grid is the model's sweep
        grids[_MODELS[model].noise] = _MODELS[model].sweep
    return RunConfig(experiment=experiment, model=model, **{**grids, **overrides})


def _grid_field(cfg: RunConfig, name: str) -> str:
    """The field that holds one grid an experiment reads: "noise" is the model's own."""
    return _MODELS[cfg.model].noise if name == "noise" else name


def _grid(cfg: RunConfig, name: str) -> tuple:
    """The values of one grid an experiment reads."""
    return getattr(cfg, _grid_field(cfg, name))


def _make_model(cfg: RunConfig, param_value: float) -> LinkModel:
    return _MODELS[cfg.model].link(cfg, param_value)


def _sparse_config(cfg: RunConfig, rho: float, s_hat: int) -> SparseConfig:
    return SparseConfig(rho=rho, s_hat=s_hat, t_max=cfg.tmax, tol=cfg.tol,
                        admm_penalty=cfg.admm_penalty, admm_tol=cfg.admm_tol,
                        admm_max_iter=cfg.admm_max_iter)


def select_matrix_kind(
    model: LinkModel, override: str = "auto", quad_order: int = DEFAULT_QUAD_ORDER
) -> str:
    """Difference vs sum estimator: by flag, else by the sign of phi.

    phi is evaluated under a forced flag too, so a bad ``quad_order`` fails.
    """
    _check_choice(override, "matrix", _MATRIX_KINDS)
    auto = KIND_SUM if moments(model, quad_order=quad_order).phi < 0.0 else KIND_DIFFERENCE
    return _MATRIX_KINDS[override] or auto


def estimation_error(beta_hat, beta_star, sign_invariant: bool = False) -> float:
    """l2 estimation error between unit vectors, optionally modulo sign."""
    beta_hat = _check_unit(beta_hat, "beta_hat")
    beta_star = _check_unit(beta_star, "beta_star")
    if beta_hat.shape != beta_star.shape:
        raise ConfigError(f"beta_hat has shape {beta_hat.shape}, beta_star {beta_star.shape}")
    plain = float(np.linalg.norm(beta_hat - beta_star))
    if not sign_invariant:
        return plain
    return min(plain, float(np.linalg.norm(beta_hat + beta_star)))


def trial_rng(cfg: RunConfig, param_value: float, n: int, p: int, s: int | None, trial: int):
    """Derived stream for one trial of one grid point (order-independent)."""
    return derive_rng(cfg.seed, cfg.experiment, cfg.model, float(param_value),
                      n, p, -1 if s is None else s, trial)


def _draw(cfg: RunConfig, param_value: float, s: int | None, p: int, n: int, trial: int):
    """One trial's stream, model, truth (s-sparse unless s is None) and estimator kind."""
    rng = trial_rng(cfg, param_value, n, p, s, trial)
    model = _make_model(cfg, param_value)
    truth = sample_beta_dense(p, rng) if s is None else sample_beta_sparse(p, s, rng)
    return rng, model, truth, select_matrix_kind(model, cfg.matrix, cfg.quad_order)


def _row(cfg: RunConfig, param_value: float, s: int | None, p: int, n: int, trial: int,
         abscissa: float, model=None, truth=None, report=None, xty=None,
         **columns) -> ExperimentRow:
    """One trial's row; given the link, a recovery report and X^T y, also its error
    against the truth, which is the sign-free error where the link is even."""
    if report is not None:
        beta_hat = orient_by_first_moment(report.beta_hat, xty)
        signfree = estimation_error(beta_hat, truth.beta_star, True)
        err = signfree if model.even else estimation_error(beta_hat, truth.beta_star)
        columns.update(err=err, err_signfree=signfree, iters=report.iterations,
                       converged=report.converged)
    return ExperimentRow(cfg.experiment, cfg.model, _MODELS[cfg.model].noise, param_value,
                         n, p, s, trial, abscissa, **columns)


def eigs_trial(cfg: RunConfig, param_value: float, s: None, p: int, n: int,
               trial: int) -> ExperimentRow:
    rng, model, truth, kind = _draw(cfg, param_value, s, p, n, trial)
    mtx, _ = sample_moment(model, truth, n, kind, rng)
    lam1, lam2, _ = top_two_eigs(mtx)
    return _row(cfg, param_value, s, p, n, trial, param_value,
                lambda1_over4=lam1 / 4.0, lambda2_over4=lam2 / 4.0)


def lowdim_trial(cfg: RunConfig, param_value: float, s: None, p: int, n: int,
                 trial: int) -> ExperimentRow:
    rng, model, truth, kind = _draw(cfg, param_value, s, p, n, trial)
    mtx, xty = sample_moment(model, truth, n, kind, rng)
    m = check_matrix(mtx, "lowdim_trial")
    if not np.any(m):
        raise NumericalError("no dominant direction: matrix is zero")
    vals, vecs = np.linalg.eigh(m)
    report = RecoveryReport(sign_normalize(vecs[:, -1]), 1, vals[-1:], True)
    return _row(cfg, param_value, s, p, n, trial, math.sqrt(p / n), model, truth, report, xty)


def sparse_trial(cfg: RunConfig, param_value: float, s: int, p: int, n: int,
                 trial: int) -> ExperimentRow:
    rng, model, truth, kind = _draw(cfg, param_value, s, p, n, trial)
    mtx, xty = sample_moment(model, truth, n, kind, rng)
    scfg = _sparse_config(cfg, cfg.rho_const * math.sqrt(math.log(p) / n),
                          cfg.shat if cfg.shat is not None else min(2 * s, p))
    report = sparse_recover(mtx, scfg)
    return _row(cfg, param_value, s, p, n, trial, math.sqrt(s * math.log(p) / n),
                model, truth, report, xty)


def _run_trials(cfg: RunConfig) -> list[ExperimentRow]:
    """Every trial of a sampled experiment, in row order: noise value, s, p, n, trial.

    The trial function is looked up by name on each run, so a replacement set
    as a module attribute (a tracer's wrapper, a test's fake) is the one called.
    """
    trial_fn = globals()[f"{cfg.experiment}_trial"]
    return [
        trial_fn(cfg, value, s, p, n, t)
        for value in _grid(cfg, "noise")
        for s in (cfg.s if "s" in _EXPERIMENTS[cfg.experiment].crosses else (None,))
        for p in cfg.p
        for n in cfg.n
        for t in range(cfg.trials)
    ]


def _run_diag(cfg: RunConfig) -> list[ExperimentRow]:
    """Print the moment summary and theory constants; pure computation.

    A non-positive eigengap statistic is reported with the sum-estimator
    advisory rather than raised.  Emits no CSV rows.
    """
    param_value = _grid(cfg, "noise")[0]
    model = _make_model(cfg, param_value)
    p = cfg.p[0]
    s = cfg.s[0] if cfg.s else None
    summ = moments(model, quad_order=cfg.quad_order)
    print(f"model={cfg.model} {_MODELS[cfg.model].noise}={param_value:.17g} "
          f"p={p} s={'-' if s is None else s}")
    print(f"mu0={summ.mu0:.12g} mu1={summ.mu1:.12g} mu2={summ.mu2:.12g} "
          f"phi={summ.phi:.12g} method={summ.method}")
    try:
        diag = theory_diagnostics(model, p, s, quad_order=cfg.quad_order)
    except ConfigError as exc:
        print(f"advisory: {exc}")
        return []
    print(f"gamma={diag.gamma:.12g} xi={diag.xi:.12g} kappa={diag.kappa:.12g} "
          f"n_min_as_printed={diag.n_min:.12g} theta_m={diag.theta_m:.12g}")
    if diag.kappa > 0.99:
        print("advisory: kappa near 1 -- expect slow sparse-stage convergence")
    return []


# name -> runner, default_config's settings over RunConfig's defaults, the grids it reads
# ("noise", the model's, "s", "p", "n"), those it crosses (each other grid it reads takes one
# value), its smallest p (2 where the top two eigenvalues are read), CLI help
_Experiment = NamedTuple("_Experiment", [("run", Callable), ("grids", dict), ("reads", tuple),
                                         ("crosses", tuple), ("min_p", int), ("help", str)])
_EXPERIMENTS = {
    "eigs": _Experiment(_run_trials, dict(trials=10), ("noise", "p", "n"), ("noise",), 2,
                        "top-two eigenvalues of the second moment over a noise grid"),
    "lowdim": _Experiment(_run_trials, dict(trials=100, n=(500, 2000, 8000), p=(20,)),
                          ("noise", "p", "n"), ("p", "n"), 1,
                          "dense recovery error over a (p, n) grid"),
    "sparse": _Experiment(_run_trials, dict(trials=100, n=(1000, 2000, 4000), p=(100,), s=(5,)),
                          ("noise", "s", "p", "n"), ("s", "p", "n"), 2,
                          "sparse recovery error over an (s, p, n) grid"),
    "diag": _Experiment(_run_diag, {}, ("noise", "s", "p"), (), 1,
                        "moment summary and theory constants (no sampling)"),
}


def run_experiment(cfg: RunConfig) -> list[ExperimentRow]:
    """Run the experiment cfg names; the only way into a run."""
    return _EXPERIMENTS[cfg.experiment].run(cfg)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    """Render rows deterministically: header plus one line per row, LF endings."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_cell(getattr(r, name)) for name in _COLUMNS))
    return "\n".join(lines) + "\n"


def _open_csv(path: str, mode: str):
    if not isinstance(path, str):
        raise ConfigError(f"the CSV path must be a string, got {path!r}")
    try:
        return open(path, mode, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def check_csv_path(path: str | None) -> None:
    """Raise now the ConfigError ``write_csv`` would raise; leave ``path`` as it was found."""
    if path is not None:
        created = isinstance(path, str) and not os.path.lexists(path)  # else _open_csv refuses it
        _open_csv(path, "a").close()
        if created:
            os.remove(path)


def write_csv(rows: list[ExperimentRow], path: str | None) -> None:
    """Write the CSV to ``path``, or to stdout for None; ConfigError if it cannot be opened."""
    text = rows_to_csv(rows)
    if path is None:
        sys.stdout.write(text)
        return
    with _open_csv(path, "w") as fh:
        fh.write(text)

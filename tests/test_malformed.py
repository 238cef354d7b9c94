"""Malformed matrices, start vectors, arrays, named choices and integer and real
arguments: one error type per input, at every entry point.

Every solver reads its matrix through ``check_matrix``.  The moment builders
return plain float64 arrays, which stay writable, so a solver checks the
matrix it is handed, not the one that was built.  A
matrix must be 2-D, square and non-empty (``ConfigError``), finite
(``NumericalError``) and symmetric to 1e-12 in Frobenius norm
(``ConfigError``), whatever its scale.  This table is the one place the
rule is tested for each entry point.

Every size, count, order and seed argument goes through one integer rule,
``errors._check_int``: a fraction, a bool, a string or a value out of range
raises ``ConfigError`` naming the argument, and a numpy integer passes.  The
second table tests it at each public integer argument.  Every real-valued
setting goes through ``errors._check_real`` in the same way: a bool, a string,
a NaN, an infinity or a value out of the setting's range raises
``ConfigError`` naming it, and a numpy real passes.  The third table tests it
at each such setting of the library and of ``RunConfig``.

Every array the library reads goes through ``errors._check_array``: a complex,
bool, string or object array, or a ragged nested list, raises ``ConfigError``
naming the argument, and an integer array is read as float64.  Every setting
named from a fixed set goes through ``errors._check_choice``: anything but a
string among the choices raises ``ConfigError`` listing them.  The array and
choice tables test each rule at each door that reads one.
"""

import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitspectral import (
    ConfigError,
    Dataset,
    FlippedLogistic,
    GroundTruth,
    NumericalError,
    OneBitCS,
    OneBitPR,
    RunConfig,
    SparseConfig,
    default_config,
    derive_rng,
    draw_labels,
    estimation_error,
    expected_moment,
    fantope_admm,
    fantope_project,
    generate_dataset,
    link_eval,
    moments,
    orient_by_first_moment,
    power_method,
    sample_beta_dense,
    sample_beta_sparse,
    sample_moment,
    second_moment,
    select_matrix_kind,
    soft_threshold,
    sparse_recover,
    theory_diagnostics,
    top_two_eigs,
    truncate,
    truncated_power_method,
)
from bitspectral import harness
from bitspectral.estimator import check_matrix
from bitspectral.spectral import _squared_power_method

CFG = SparseConfig(rho=0.1, s_hat=1)
E1 = np.array([1.0, 0.0])
ASYMMETRIC = np.array([[2.0, 1.0], [0.0, 2.0]])

ENTRY_POINTS = {
    "power_method": lambda a: power_method(a, E1),
    "_squared_power_method": lambda a: _squared_power_method(a, E1),
    "truncated_power_method": lambda a: truncated_power_method(a, E1, CFG),
    "top_two_eigs": top_two_eigs,
    "fantope_project": fantope_project,
    "fantope_admm": lambda a: fantope_admm(a, CFG),
    "sparse_recover": lambda a: sparse_recover(a, CFG),
}

MALFORMED = {
    "1-d": (np.array([1.0, 0.0]), ConfigError),
    "2x3": (np.ones((2, 3)), ConfigError),
    "0x0": (np.ones((0, 0)), ConfigError),
    "nan": (np.array([[1.0, np.nan], [np.nan, 1.0]]), NumericalError),
    "+inf": (np.array([[np.inf, 0.0], [0.0, 1.0]]), NumericalError),
    "diagonal nan": (np.array([[np.nan, 0.0], [0.0, 1.0]]), NumericalError),
    "off-diagonal +inf": (np.array([[1.0, np.inf], [np.inf, 1.0]]), NumericalError),
    "off-diagonal -inf": (np.array([[1.0, -np.inf], [-np.inf, 1.0]]), NumericalError),
    "asymmetric": (ASYMMETRIC, ConfigError),
    "asymmetric*2^-60": (2.0**-60 * ASYMMETRIC, ConfigError),
    "asymmetric*2^60": (2.0**60 * ASYMMETRIC, ConfigError),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_matrix_raises_one_error_type_everywhere(name, entry):
    a, error = MALFORMED[name]
    with pytest.raises(error, match="requires a"):
        ENTRY_POINTS[entry](a.copy())


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_well_formed_matrix_passes_every_entry_point(entry):
    ENTRY_POINTS[entry](np.diag([2.0, 1.0]))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_moment_matrix_edited_after_it_is_built_is_refused(entry):
    # one weighted pair with dx = (1, 1): second_moment builds M = 4 [[1, 1], [1, 1]]
    mtx = second_moment(Dataset(np.array([1, -1]), np.array([[0.0, 0.0], [1.0, 1.0]])))
    mtx[0, 1] = 5.0
    with pytest.raises(ConfigError, match=f"^{entry} requires a symmetric matrix"):
        ENTRY_POINTS[entry](mtx)


@pytest.mark.parametrize("entries", [[[2.0, 0.0], [0.0, 1.0]], np.array([[2, 0], [0, 1]])],
                         ids=["nested list", "int array"])
def test_check_matrix_reads_an_array_like_as_float64(entries):
    a = check_matrix(entries, "a")
    assert type(a) is np.ndarray and a.dtype == np.float64
    np.testing.assert_array_equal(a, np.diag([2.0, 1.0]))


@pytest.mark.parametrize("scale", [2.0**-600, 1.0, 2.0**600], ids=["2^-600", "1", "2^600"])
def test_check_matrix_returns_the_float64_array_it_was_given(scale):
    # never the power-of-two rescaled copy that the symmetry test reads
    a = scale * np.diag([2.0, 1.0])
    assert check_matrix(a, "a") is a


@pytest.mark.parametrize("scale", [2.0**-600, 1.0, 2.0**600], ids=["2^-600", "1", "2^600"])
def test_symmetry_tolerance_is_relative_at_1e_12(scale):
    # ||A - A^T||_F / ||A||_F = sqrt(2) d / sqrt(2 + d^2), which rounds to d here
    for d, refused in ((0.99e-12, False), (1.01e-12, True)):
        a = scale * np.array([[1.0, d], [0.0, 1.0]])
        if refused:
            with pytest.raises(ConfigError, match="symmetric"):
                check_matrix(a, "a")
        else:
            check_matrix(a, "a")


def _refused(a: np.ndarray) -> bool:
    try:
        check_matrix(a, "a")
    except ConfigError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    p=st.integers(1, 5),
    e0=st.integers(-30, 30),
    d=st.integers(-80, 0),
    k=st.integers(-900, 900),
)
def test_refusal_is_scale_free(data, p, e0, d, k):
    # a symmetric integer matrix times 2^e0, with one entry moved by up to
    # 2^(20 + e0 + d): asymmetries on both sides of the tolerance.  Every
    # nonzero entry of A and of 2^k A is a normal double, so 2^k A is exact;
    # its Frobenius norm is far outside [2^-400, 2^400] for large |k|
    ints = st.integers(-2**20, 2**20)
    low = np.tril(np.array(data.draw(st.lists(ints, min_size=p * p, max_size=p * p)),
                           dtype=float).reshape(p, p))
    a = np.ldexp(low + np.tril(low, -1).T, e0)
    i, j = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    a[i, j] += np.ldexp(float(data.draw(ints)), e0 + d)
    assert _refused(np.ldexp(a, k)) == _refused(a)


@pytest.mark.parametrize("start", [np.array([0.6, 0.8]), np.array([[1.0, 0.0, 0.0]])],
                         ids=["short", "2-d"])
@pytest.mark.parametrize("solver", [
    power_method,
    _squared_power_method,
    lambda m, b0: truncated_power_method(m, b0, SparseConfig(rho=0.1, s_hat=2)),
], ids=["power_method", "_squared_power_method", "truncated_power_method"])
def test_start_vector_not_of_shape_p_is_a_config_error(solver, start):
    with pytest.raises(ConfigError, match=r"beta0 must have shape \(3,\)"):
        solver(np.diag([3.0, 2.0, 1.0]), start)


@pytest.mark.parametrize("v", [np.array([[0.6, 0.8]]), np.array(1.0)], ids=["2-d", "0-d"])
def test_truncate_refuses_a_vector_that_is_not_1d(v):
    with pytest.raises(ConfigError, match="1-D"):
        truncate(v, 1)


MODEL = OneBitCS(0.5)
TRUTH = sample_beta_dense(4, 0)

# argument -> (call taking the value, name in the message, a value in range, more faults:
# values out of range, and orders that int() would have truncated or parsed to >= 8)
INT_ARGUMENTS = {
    "sample_beta_dense p": (lambda k: sample_beta_dense(k, 0), "p", 4, [0]),
    "sample_beta_dense seed": (lambda k: sample_beta_dense(4, k), "seed", 3, [-1]),
    "sample_beta_sparse p": (lambda k: sample_beta_sparse(k, 1, 0), "p", 4, [0]),
    "sample_beta_sparse s": (lambda k: sample_beta_sparse(4, k, 0), "s", 2, [0, 5]),
    "generate_dataset n": (lambda k: generate_dataset(MODEL, TRUTH, k, 0), "n", 10, [1]),
    "sample_moment n": (lambda k: sample_moment(MODEL, TRUTH, k, "difference", 0), "n", 10, [1]),
    "moments quad_order": (lambda k: moments(MODEL, k), "quadrature order", 16, [7, 9.5, "16"]),
    "expected_moment quad_order": (lambda k: expected_moment(MODEL, TRUTH, quad_order=k),
                                   "quadrature order", 16, [7, 9.5, "16"]),
    "theory_diagnostics p": (lambda k: theory_diagnostics(MODEL, k), "p", 10, [0]),
    "theory_diagnostics s": (lambda k: theory_diagnostics(MODEL, 10, k), "s", 2, [0, 11]),
    "truncate s_hat": (lambda k: truncate(np.array([0.1, 0.4, 0.2, 0.3]), k), "s_hat", 2, [0, 5]),
    "power_method t_max": (lambda k: power_method(np.diag([2.0, 1.0]), E1, t_max=k), "t_max", 2,
                           [0]),
    "derive_rng seed": (lambda k: derive_rng(k, "a"), "seed", 3, []),  # any integer keys a stream
}


@pytest.mark.parametrize("argument", INT_ARGUMENTS)
def test_integer_argument_refuses_all_but_an_integer_in_range(argument):
    call, name, good, more = INT_ARGUMENTS[argument]
    for bad in [2.5, True, "3", *more]:
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            call(bad)
    call(np.int64(good))  # numpy integers pass


def test_moments_cache_checks_an_order_of_another_type():
    # 16.0 == 16 and hashes alike, so an untyped cache would return 16's summary unchecked
    model = OneBitCS(0.25)
    moments(model, 16)
    with pytest.raises(ConfigError, match="^quadrature order must be an integer, got 16.0"):
        moments(model, 16.0)


@pytest.mark.parametrize("seed", [np.int64(3), None, [3], np.random.SeedSequence(3),
                                  np.random.PCG64(3)],
                         ids=["int64", "None", "list", "SeedSequence", "PCG64"])
def test_every_other_seed_form_numpy_takes_still_draws(seed):
    truth = sample_beta_dense(3, seed)
    if isinstance(seed, np.integer):
        np.testing.assert_array_equal(truth.beta_star, sample_beta_dense(3, 3).beta_star)


# setting -> call taking the value; each is named in its message
REAL_ARGUMENTS = {
    "rho": lambda v: SparseConfig(rho=v, s_hat=2),
    "tol": lambda v: SparseConfig(rho=0.1, s_hat=2, tol=v),
    "admm_penalty": lambda v: SparseConfig(rho=0.1, s_hat=2, admm_penalty=v),
    "admm_tol": lambda v: SparseConfig(rho=0.1, s_hat=2, admm_tol=v),
    "zeta": lambda v: FlippedLogistic(zeta=v),
    "pe": lambda v: FlippedLogistic(pe=v),
    "sigma": lambda v: OneBitCS(sigma=v),
    "theta": lambda v: OneBitPR(theta=v),
    "threshold": lambda v: soft_threshold(np.eye(2), v),  # soft_threshold's t
    "rho_const": lambda v: RunConfig(experiment="lowdim", rho_const=v),
}

# setting -> (values below its range, the value at its open bound if it has one, and its
# message for the last of them); a NaN, +inf and -inf are refused everywhere
REAL_RANGES = {
    "rho": [-0.5, "must be >= 0, got -0.5"],
    "tol": [-1e-12, "must be >= 0, got -1e-12"],
    "admm_penalty": [-1.0, 0.0, "must be > 0, got 0.0"],
    "admm_tol": [-1.0, 0, "must be > 0, got 0"],
    "zeta": ["must be finite, got -inf"],
    "pe": [-0.1, 0.5, "must be < 0.5, got 0.5"],
    "sigma": [-1.0, "must be >= 0, got -1.0"],
    "theta": [-1.0, 0.0, "must be > 0, got 0.0"],
    "threshold": [-0.1, "must be >= 0, got -0.1"],
    "rho_const": [-1.0, "must be >= 0, got -1.0"],
}

# RunConfig field -> the model that reads it; each reaches the rule through RunConfig
RUN_FIELDS = {"pe": "flr", "sigma": "cs", "theta": "pr", "zeta": "flr", "tol": "cs",
              "rho_const": "cs", "admm_penalty": "cs", "admm_tol": "cs"}


def test_every_real_setting_has_a_range_row():
    assert set(REAL_RANGES) == set(REAL_ARGUMENTS)
    assert set(RUN_FIELDS) == {f.name for f in fields(RunConfig)
                               if harness._field_type(f.type)[0] is float}


@pytest.mark.parametrize("name", REAL_ARGUMENTS)
def test_real_setting_refuses_a_bool_or_a_string(name):
    for bad in [True, False, "1", "0.1"]:
        with pytest.raises(ConfigError, match=f"^{name} must be a real number, got {bad!r}"):
            REAL_ARGUMENTS[name](bad)
    REAL_ARGUMENTS[name](np.float64(0.25))  # numpy reals pass


def _refuses_out_of_range(call, name):
    *outside, last = REAL_RANGES[name]
    for bad in [np.nan, np.inf, -np.inf, *outside]:
        with pytest.raises(ConfigError, match=f"^{name}( grid value)? must be ") as caught:
            call(bad)
        if not -np.inf < bad < np.inf:
            assert str(caught.value).endswith(f"must be finite, got {bad}")
    assert str(caught.value).endswith(last)


@pytest.mark.parametrize("name", REAL_ARGUMENTS)
def test_real_setting_refuses_a_value_out_of_its_range(name):
    _refuses_out_of_range(REAL_ARGUMENTS[name], name)


@pytest.mark.parametrize("name", RUN_FIELDS)
def test_run_config_names_the_real_setting_out_of_range(name):
    grid = isinstance(getattr(RunConfig, name), tuple)
    _refuses_out_of_range(lambda v: RunConfig(experiment="lowdim", model=RUN_FIELDS[name],
                                              **{name: (v,) if grid else v}), name)


def test_real_setting_takes_its_closed_bound_and_an_integer():
    SparseConfig(rho=0, s_hat=2, tol=0.0)
    FlippedLogistic(zeta=-3, pe=0)
    OneBitCS(sigma=0.0)
    soft_threshold(np.eye(2), 0)
    RunConfig(experiment="lowdim", rho_const=0.0)


@pytest.mark.parametrize("field, value", [("n", 200), ("sigma", 0.5)])
def test_scalar_given_for_a_grid_is_a_config_error(field, value):
    with pytest.raises(ConfigError, match=f"^{field} takes a tuple of values, got {value!r}"):
        RunConfig(experiment="lowdim", **{field: value})


@pytest.mark.parametrize("name", ["zeta", "rho", "threshold"])
@pytest.mark.parametrize("sign", [1, -1], ids=["+", "-"])
def test_real_setting_refuses_an_int_beyond_the_float_range(name, sign):
    # math.isfinite(10**400) raises OverflowError; the message does not print the int
    with pytest.raises(ConfigError, match=f"^{name} must be finite, got an int too large"):
        REAL_ARGUMENTS[name](sign * 10**400)


DIAG = np.diag([2.0, 1.0])

# door -> (call taking the array, the argument's name in the message, a real array it takes)
ARRAY_DOORS = {
    **{f"{entry} matrix": (call, f"{entry}'s matrix", DIAG)
       for entry, call in ENTRY_POINTS.items()},
    "power_method beta0": (lambda v: power_method(DIAG, v), "beta0", E1),
    "estimation_error beta_hat": (lambda v: estimation_error(v, E1), "beta_hat", E1),
    "estimation_error beta_star": (lambda v: estimation_error(E1, v), "beta_star", E1),
    "soft_threshold": (lambda v: soft_threshold(v, 0.5), "soft_threshold's a", DIAG),
    "truncate": (lambda v: truncate(v, 1), "truncate's v", E1),
    "draw_labels": (lambda v: draw_labels(MODEL, v, 0), "index values", E1),
    "link_eval": (lambda v: link_eval(MODEL, v), "link_eval's z", E1),
    "GroundTruth": (lambda v: GroundTruth(v, np.arange(2)), "beta_star", E1),
    "Dataset covariates": (lambda v: Dataset([1, -1], v), "covariates", DIAG),
    "orient_by_first_moment beta_hat": (lambda v: orient_by_first_moment(v, E1), "beta_hat", E1),
    "orient_by_first_moment xty": (lambda v: orient_by_first_moment(E1, v), "xty", E1),
}

# fault -> the faulty form of a door's real array
BAD_ARRAYS = {
    "complex": lambda a: a.astype(complex),
    "bool": lambda a: a.astype(bool),
    "string": lambda a: a.astype(str),
    "object": lambda a: a.astype(object),
    "ragged": lambda a: [a.tolist(), [0.0]],
}


@pytest.mark.parametrize("fault", BAD_ARRAYS)
@pytest.mark.parametrize("door", ARRAY_DOORS)
def test_array_door_refuses_all_but_a_real_array(door, fault):
    call, name, good = ARRAY_DOORS[door]
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be "):
        call(BAD_ARRAYS[fault](good))
    call(good.astype(np.int64))  # integer arrays pass


@pytest.mark.parametrize("xty", [np.ones(3), np.ones((2, 1))], ids=["longer", "2-d"])
def test_orient_by_first_moment_refuses_a_vector_of_another_shape(xty):
    with pytest.raises(ConfigError, match="^(beta_hat has shape|xty must be 1-D)"):
        orient_by_first_moment(E1, xty)


DATA = Dataset(np.array([1, -1]), np.array([[0.0, 0.0], [1.0, 1.0]]))

# door -> (call taking the name, the setting's name in the message, its choices)
CHOICE_DOORS = {
    "RunConfig experiment": (lambda v: RunConfig(experiment=v), "experiment",
                             tuple(harness._EXPERIMENTS)),
    "RunConfig model": (lambda v: RunConfig(experiment="lowdim", model=v), "model",
                        tuple(harness._MODELS)),
    "RunConfig matrix": (lambda v: RunConfig(experiment="lowdim", matrix=v), "matrix",
                         tuple(harness._MATRIX_KINDS)),
    "select_matrix_kind": (lambda v: select_matrix_kind(MODEL, v), "matrix",
                           tuple(harness._MATRIX_KINDS)),
    "second_moment kind": (lambda v: second_moment(DATA, v), "kind", ("difference", "sum")),
    "default_config experiment": (lambda v: default_config(v), "experiment",
                                  tuple(harness._EXPERIMENTS)),
    "default_config model": (lambda v: default_config("lowdim", v), "model",
                             tuple(harness._MODELS)),
}


@pytest.mark.parametrize("fault", ["list", "int", "None", "unknown"])
@pytest.mark.parametrize("door", CHOICE_DOORS)
def test_choice_refuses_all_but_a_listed_name(door, fault):
    call, name, choices = CHOICE_DOORS[door]
    bad = {"list": [choices[0]], "int": 5, "None": None, "unknown": "xyz"}[fault]
    message = f"{name} must be one of {choices}, got {bad!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(bad)

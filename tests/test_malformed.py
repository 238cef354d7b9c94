"""Malformed matrices and start vectors: one error type per input, at every entry point.

Every solver reads its matrix through ``check_matrix``.  The moment builders
return plain float64 arrays, which stay writable, so a solver checks the
matrix it is handed, not the one that was built.  A
matrix must be 2-D, square and non-empty (``ConfigError``), finite
(``NumericalError``) and symmetric to 1e-12 in Frobenius norm
(``ConfigError``), whatever its scale.  This table is the one place the
rule is tested for each entry point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitspectral import (
    ConfigError,
    Dataset,
    NumericalError,
    SparseConfig,
    fantope_admm,
    fantope_project,
    power_method,
    second_moment,
    sparse_recover,
    top_two_eigs,
    truncate,
    truncated_power_method,
)
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

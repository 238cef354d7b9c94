"""Symmetric eigenvalues with eigenvectors for the top k only, via numpy's own LAPACK.

numpy wheels bundle OpenBLAS as ``numpy.libs/libscipy_openblas64_-*.so`` and
have it mapped once numpy is imported, so binding its LAPACKE symbols loads
nothing new.  When the library or a symbol is missing (other numpy builds
link a system LAPACK under other names), ``spectrum`` returns (None, None),
as it does when a routine reports failure or the tridiagonal form splits.
"""

import ctypes
from pathlib import Path

import numpy as np

_INT, _CHAR = ctypes.c_int64, ctypes.c_char
_VEC = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_IDX = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_COL_MAJOR = 102  # a symmetric C-ordered matrix is its own column-major layout
_SIGNATURES = {
    "dsytrd": [ctypes.c_int, _CHAR, _INT, _VEC, _INT, _VEC, _VEC, _VEC],
    "dsterf": [_INT, _VEC, _VEC],
    "dstein": [ctypes.c_int, _INT, _VEC, _VEC, _INT, _VEC, _IDX, _IDX, _VEC, _INT, _IDX],
    "dormtr": [ctypes.c_int, _CHAR, _CHAR, _CHAR, _INT, _INT, _VEC, _INT, _VEC, _VEC, _INT],
}
# dstebz's split test: T splits below row j where e_j^2 < ulp^2 |d_j d_j+1| + safemin
_ULP2, _SAFEMIN = np.finfo(float).eps ** 2, np.finfo(float).tiny


def _bind():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(path))
        try:
            fns = {name: getattr(lib, f"scipy_LAPACKE_{name}64_") for name in _SIGNATURES}
        except AttributeError:
            continue
        for name, fn in fns.items():
            fn.argtypes, fn.restype = _SIGNATURES[name], _INT
        return fns
    return None


_LAPACKE = _bind()


def spectrum(a: np.ndarray):
    """Ascending eigenvalues of the symmetric matrix ``a``, and ``top(k)``.

    One Householder reduction to tridiagonal form T (dsytrd) serves both, and
    the eigenvalues come from T by dsterf.  ``top(k)`` hands the k largest to
    inverse iteration (dstein) and maps the vectors back (dormtr).  It returns
    them as the columns of a p x k array in ascending order of eigenvalue, or
    None when LAPACK does not deliver k finite vectors.  A T that splits, with
    an off-diagonal entry negligible by dstebz's rule, returns (None, None).
    """
    f = _LAPACKE
    if f is None or a.ndim != 2 or not 0 < a.shape[0] == a.shape[1]:
        return None, None  # LAPACK would read an n x n matrix past a malformed buffer
    n = a.shape[0]
    h = np.array(a, dtype=float, order="C")  # becomes the Householder reflectors
    d, e, tau = np.empty(n), np.zeros(n), np.empty(max(n - 1, 1))
    if f["dsytrd"](_COL_MAJOR, b"L", n, h, n, d, e, tau) != 0:
        return None, None
    with np.errstate(over="ignore"):  # entries above about 1e154 overflow to inf: no split
        if np.any(e[:-1] ** 2 < _ULP2 * np.abs(d[:-1] * d[1:]) + _SAFEMIN):
            return None, None
    w, sub = d.copy(), e.copy()  # dsterf overwrites both; dstein reads d and e
    if f["dsterf"](n, w, sub) != 0:
        return None, None

    def top(k: int):
        z, ifail, vals = np.empty((k, n)), np.empty(k, dtype=np.int64), np.zeros(n)
        vals[:k] = w[n - k:]  # LAPACKE's NaN check reads n entries, dstein the first k
        # IBLOCK and ISPLIT of one block: every eigenvalue is in block 1, which ends at row n
        info = f["dstein"](_COL_MAJOR, n, d, e, k, vals, np.ones(k, dtype=np.int64),
                           np.array([n], dtype=np.int64), z, n, ifail)
        if info != 0 or not np.isfinite(z).all():
            return None
        if f["dormtr"](_COL_MAJOR, b"L", b"L", b"N", n, k, h, n, tau, z, n) != 0:
            return None
        return z.T

    return w, top

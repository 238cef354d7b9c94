"""Symmetric eigenvalues with eigenvectors for the top k only, via numpy's own LAPACK.

numpy wheels bundle OpenBLAS as ``numpy.libs/libscipy_openblas64_-*.so`` and
have it mapped once numpy is imported, so binding its LAPACKE symbols loads
nothing new.  When the library or a symbol is missing (other numpy builds
link a system LAPACK under other names), ``spectrum`` returns (None, None),
as it does when a routine reports failure.
"""

import ctypes
from pathlib import Path

import numpy as np

_INT, _CHAR, _DBL = ctypes.c_int64, ctypes.c_char, ctypes.c_double
_VEC = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_IDX = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_REF = ctypes.POINTER(_INT)
_COL_MAJOR = 102  # a symmetric C-ordered matrix is its own column-major layout
_SIGNATURES = {
    "dsytrd": [ctypes.c_int, _CHAR, _INT, _VEC, _INT, _VEC, _VEC, _VEC],
    "dsterf": [_INT, _VEC, _VEC],
    "dstemr": [ctypes.c_int, _CHAR, _CHAR, _INT, _VEC, _VEC, _DBL, _DBL, _INT, _INT,
               _REF, _VEC, _VEC, _INT, _INT, _IDX, _REF],
    "dormtr": [ctypes.c_int, _CHAR, _CHAR, _CHAR, _INT, _INT, _VEC, _INT, _VEC, _VEC, _INT],
}


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

    One Householder reduction to tridiagonal form (dsytrd) serves both: the
    eigenvalues come from its tridiagonal (dsterf), and ``top(k)`` computes
    eigenvectors for the k largest only (dstemr) and maps them back (dormtr).
    It returns them as the columns of a p x k array in ascending order, or
    None when LAPACK does not deliver k finite vectors; call it once, since
    dstemr overwrites the tridiagonal.
    """
    f = _LAPACKE
    if f is None or a.ndim != 2 or not 0 < a.shape[0] == a.shape[1]:
        return None, None  # np.linalg.eigh then reports a malformed shape
    n = a.shape[0]
    h = np.array(a, dtype=float, order="C")  # becomes the Householder reflectors
    d, e, tau = np.empty(n), np.zeros(n), np.empty(max(n - 1, 1))
    info = f["dsytrd"](_COL_MAJOR, b"L", n, h, n, d, e, tau)
    lam, sub = d.copy(), e.copy()  # dsterf and dstemr both overwrite d and e
    if info != 0 or f["dsterf"](n, lam, sub) != 0:
        return None, None

    def top(k: int):
        m, tryrac = _INT(), _INT(1)
        w, z, isuppz = np.empty(n), np.empty((k, n)), np.empty(2 * n, dtype=np.int64)
        info = f["dstemr"](_COL_MAJOR, b"V", b"I", n, d, e, 0.0, 0.0, n - k + 1, n,
                           m, w, z, n, k, isuppz, tryrac)
        if info != 0 or m.value != k or not np.isfinite(z).all():
            return None
        info = f["dormtr"](_COL_MAJOR, b"L", b"L", b"N", n, k, h, n, tau, z, n)
        return z.T if info == 0 else None

    return lam, top

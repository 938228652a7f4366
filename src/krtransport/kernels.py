"""Hot numeric kernels, in plain numpy: orthonormal Legendre tables (the
projection basis), Chebyshev tables (the basis every 1d series in t is
evaluated in) and sparse tensor-Legendre evaluation.

Both tables run a three-term recurrence, one row per degree; the Chebyshev
one, T_{n+1} = 2x T_n - T_{n-1}, takes two array operations per degree
against the Legendre one's six. ``perfbench/kernels_micro.py`` times the
Legendre table and the tensor evaluation and states their operation and
byte counts.
"""

import numpy as np

__all__ = ["NUMBA_ENABLED", "chebyshev_table", "legendre_table", "poly_eval_tables"]

# There is no compiled path; perfbench/run.py and perfbench/kernels_micro.py
# read this flag to record the kernel provenance of a run.
NUMBA_ENABLED = False


def legendre_table(x: np.ndarray, nmax: int) -> np.ndarray:
    """Orthonormal Legendre values L_0(x)..L_nmax(x), shape (len(x), nmax+1).

    L_n = sqrt(2n+1) * P_n with P_n the classical Legendre polynomial, so
    that integral of L_n^2 against the uniform probability measure on
    [-1, 1] equals 1.
    """
    x = np.asarray(x, dtype=np.float64)
    # filled as (nmax+1, npts): each recurrence step writes a contiguous row
    out = np.empty((nmax + 1, x.shape[0]))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = x
    for n in range(1, nmax):
        # classical three-term recurrence on the unnormalized P_n
        out[n + 1] = ((2 * n + 1) * x * out[n] - n * out[n - 1]) / (n + 1)
    out *= np.sqrt(2.0 * np.arange(nmax + 1) + 1.0)[:, None]
    return out.T


def chebyshev_table(x: np.ndarray, nmax: int) -> np.ndarray:
    """Chebyshev values T_0(x)..T_nmax(x), shape (len(x), nmax+1).

    The recurrence T_{n+1} = (2x) T_n - T_{n-1} in the operation order of
    ``numpy.polynomial.chebyshev.chebvander``, so the values are bitwise
    the same (its x + 0.0 included, which turns -0.0 into 0.0).
    """
    x = np.asarray(x, dtype=np.float64) + 0.0
    # filled as (nmax+1, npts): each recurrence step writes a contiguous row,
    # indexed once and kept as a view for the next two steps (a list of all
    # row views cost more than it saved on the 2- and 3-row tables of the
    # exact transport's linear densities)
    out = np.empty((nmax + 1, x.shape[0]))
    prev = out[0]
    prev[...] = 1.0
    if nmax >= 1:
        cur = out[1]
        cur[...] = x
        x2 = 2.0 * x
    for n in range(2, nmax + 1):
        row = out[n]
        np.multiply(cur, x2, out=row)
        np.subtract(row, prev, out=row)
        prev, cur = cur, row
    return out.T


def poly_eval_tables(
    tables: np.ndarray, exps: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """Evaluate a sparse tensor-Legendre polynomial from per-dim value tables.

    tables: (npts, k, nmax+1) with tables[i, j, n] = L_n(x_i_j)
    exps:   (nterms, k) integer exponents
    coeffs: (nterms,)
    returns (npts,) values sum_t coeffs[t] * prod_j tables[:, j, exps[t, j]]
    """
    npts = tables.shape[0]
    out = np.zeros(npts)
    for t in range(exps.shape[0]):
        term = np.full(npts, coeffs[t])
        for j in range(exps.shape[1]):
            n = exps[t, j]
            if n > 0:
                term = term * tables[:, j, n]
        out += term
    return out

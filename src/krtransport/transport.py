"""Exact Knothe-Rosenblatt triangular transport between densities.

Component k maps x_k through the reference conditional CDF and back
through the inverse of the target conditional CDF, with the prefix fed
through the earlier components. The conditional density f_k(prefix, .)
becomes one series per distinct prefix: rows of a batch with bitwise-equal
x_<k share one Legendre series in t of the marginal hat f_k(prefix, .),
divided by its own mass A_0, so that the CDF (its exact antiderivative)
reaches 1 at t = 1 up to rounding. The bracketed bisection-Newton root
solve works on that series alone, and the diagonal derivative is the
ratio of the two density series. The rational components of
``approx`` hand their CDF series to the same solver. All point operations
are vectorized over batches of points.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .density import Density, marginal_hat
from .polybasis import legendre_antiderivative, legendre_series
from .quadrature import gauss_legendre

DEFAULT_CDF_ORDER = 32
MAX_CDF_ORDER = 256
DEFAULT_ROOT_TOL = 1e-12
DEFAULT_ROOT_MAXIT = 200
# entries of the node array filled per marginal_hat call: one (m, n, k)
# array for all prefixes reached 17 MB in the d = 32 truncation study, whose
# peak RSS then swung between 83 and 97 MB from run to run (74-78 MB now)
_NODE_BLOCK = 1 << 19


def invert_monotone(F, y, lo=-1.0, hi=1.0, fprime=None, tol=DEFAULT_ROOT_TOL,
                    maxiter=DEFAULT_ROOT_MAXIT):
    """Solve F(t) = y for strictly increasing vectorized F on [lo, hi].

    Newton steps (when fprime is given) safeguarded by bisection on a
    maintained bracket. Raises ValueError if [F(lo), F(hi)] misses some y
    by more than tol, or if some |F(t) - y| is above tol after maxiter steps.
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    m = y.shape[0]
    a = np.full(m, lo)
    b = np.full(m, hi)
    fa = np.asarray(F(a), dtype=np.float64) - y
    fb = np.asarray(F(b), dtype=np.float64) - y
    if np.any(fa > tol) or np.any(fb < -tol):
        raise ValueError("target values do not bracket: monotonicity broken upstream")
    t = 0.5 * (a + b)
    for it in range(maxiter + 1):
        ft = np.asarray(F(t), dtype=np.float64) - y
        done = np.abs(ft) <= tol
        if np.all(done):
            return np.clip(t, lo, hi)
        if it == maxiter:
            break
        neg = ft < 0
        a = np.where(neg, t, a)
        b = np.where(neg, b, t)
        if fprime is not None:
            dft = np.asarray(fprime(t), dtype=np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                tn = t - ft / dft
            bad = ~np.isfinite(tn) | (tn <= a) | (tn >= b)
            tn = np.where(bad, 0.5 * (a + b), tn)
        else:
            tn = 0.5 * (a + b)
        t = np.where(done, t, tn)
    resid = np.abs(ft[~done])
    raise ValueError(
        f"{resid.size} of {m} roots unconverged after {maxiter} steps: "
        f"worst residual {float(np.max(resid)):.3e} > tol {tol:g}"
    )


def _invert_cdf(C: np.ndarray, u, slope) -> np.ndarray:
    """t in [-1, 1] with F_i(t_i) = u_i, F_i the CDF series in row i of C.

    C (m, n): Legendre coefficients of CDFs with F(-1) = 0 and F(1) = 1 up
    to rounding; u is clipped into [0, 1]. slope(table) returns F' from the
    (m, n) Legendre table at t. Each Newton step builds one table and reads
    F and F' off it; only F' at the latest t is kept, so no table outlives
    its step (holding it until the F' call raised the peak RSS of the d = 32
    truncation study from 82 to 97 MB in a single-threaded run).
    """
    n = C.shape[1]
    held = [None, None]  # the latest t and F' there

    def F(t):
        table = kernels.legendre_table(t, n - 1)
        held[:] = t, slope(table)
        return np.einsum("mn,mn->m", table, C)

    def fprime(t):
        if held[0] is not t:
            F(t)
        return held[1]

    return invert_monotone(F, np.clip(u, 0.0, 1.0), fprime=fprime)


def _single_group(m: int):
    """(group, first) for m rows that all share the empty prefix."""
    return np.zeros(m, dtype=np.intp), np.arange(min(m, 1))


def _refine_groups(group: np.ndarray, col: np.ndarray):
    """Split the row groups by the bit pattern of one more coordinate.

    group: (m,) ids in [0, G); col: (m,) float64. Returns (group', first):
    rows share an id in group' iff they share one in group and col is
    bitwise equal; ids follow the (group, bits) sort order, so they do not
    depend on the order of the rows. first holds one row index per id.
    """
    bits = col.view(np.int64)
    order = np.lexsort((bits, group))
    g, b = group[order], bits[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (g[1:] != g[:-1]) | (b[1:] != b[:-1])
    out = np.empty_like(group)
    out[order] = np.cumsum(new) - 1
    return out, order[new]


@dataclass(frozen=True)
class ExactTransport:
    """The KR transport T with T_sharp(reference) = target."""

    reference: Density
    target: Density

    def __post_init__(self):
        if self.reference.d != self.target.d:
            raise ValueError("reference and target dimensions differ")

    def _density_series(self, f: Density, k: int, prefix) -> np.ndarray:
        """A (m, n): Legendre coefficients in t of f_k(prefix_i, t).

        hat f_k is sampled once on an n-point Gauss rule per prefix (the
        (m, n, k) node array, filled _NODE_BLOCK entries at a time),
        projected onto L_0..L_{n-1}, and divided by
        its own mass A_0, so every row has A_0 = 1. n starts at
        DEFAULT_CDF_ORDER and doubles while the last two coefficients exceed
        DEFAULT_ROOT_TOL, up to MAX_CDF_ORDER. Trailing columns below 1e-15
        (rounding) are dropped, so a density linear in t keeps two.
        """
        m = prefix.shape[0]
        n = DEFAULT_CDF_ORDER
        while True:
            rule = gauss_legendre(n)
            vals = np.empty((m, n))
            step = max(1, _NODE_BLOCK // (n * k))
            for lo in range(0, m, step):
                p = prefix[lo:lo + step]
                pts = np.empty((p.shape[0], n, k))
                pts[:, :, : k - 1] = p[:, None, :]
                pts[:, :, k - 1] = rule.nodes
                vals[lo:lo + step] = marginal_hat(
                    f, k, pts.reshape(-1, k)).reshape(-1, n)
            A = (vals * rule.weights) @ kernels.legendre_table(rule.nodes, n - 1)
            if np.any(A[:, 0] <= 0):
                raise ValueError("non-positive marginal encountered")
            A /= A[:, :1]
            tail = float(np.max(np.abs(A[:, -2:]), initial=0.0))
            if tail <= DEFAULT_ROOT_TOL:
                break
            if n >= MAX_CDF_ORDER:
                raise ValueError(
                    f"conditional density of component {k} is not resolved by "
                    f"{n} Legendre coefficients: tail {tail:.3e} > "
                    f"{DEFAULT_ROOT_TOL:g}"
                )
            n *= 2
        live = np.flatnonzero(np.any(np.abs(A) > 1e-15, axis=0))
        return A[:, : live[-1] + 1 if live.size else 1]

    def conditional_cdf(self, f: Density, k: int, prefix, t):
        """F_k(prefix, t) = (1/2) * integral_{-1}^{t} f_k(prefix, s) ds.

        prefix: (m, k-1); t: (m,). The exact antiderivative of the
        normalised Legendre series of f_k(prefix, .), built once per
        distinct prefix and evaluated at t.
        """
        prefix = np.atleast_2d(np.asarray(prefix, dtype=np.float64))
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        group, first = _single_group(prefix.shape[0])
        for j in range(prefix.shape[1]):
            group, first = _refine_groups(group, prefix[:, j])
        C = legendre_antiderivative(self._density_series(f, k, prefix[first]))
        return legendre_series(C[group], t)

    def forward(self, x):
        """T(x) for x of shape (m, d) or a single point."""
        return self._map(self.reference, self.target, x)

    def inverse(self, y):
        """S(y) with T(S(y)) = y: the KR map from target to reference."""
        return self._map(self.target, self.reference, y)

    def _map(self, src: Density, dst: Density, x):
        x = np.asarray(x, dtype=np.float64)
        y, _ = self._solve(src, dst, np.atleast_2d(x), x.shape[-1])
        return y[0] if x.ndim == 1 else y

    def _solve(self, src: Density, dst: Density, x: np.ndarray, kmax: int):
        """Components 1..kmax of the KR map from src to dst at x (m, >=kmax).

        Per coordinate solves F_dst(y_[k-1], y_k) = F_src(x_[k-1], x_k)
        on the series of the dst conditional density. Both series are
        built once per distinct prefix x_[k-1]: rows with equal x_[k-1]
        have equal y_[k-1], as the map is triangular. Returns y (m, kmax)
        and d/dx_k y_kmax = f_src;kmax(x) / f_dst;kmax(y), read off the
        same series; one table at x_k gives both F_src and f_src.
        """
        m = x.shape[0]
        y = np.empty((m, kmax))
        group, first = _single_group(m)
        for k in range(1, kmax + 1):
            if k > 1:
                group, first = _refine_groups(group, x[:, k - 2])
            xk = x[:, k - 1]
            A_src = self._density_series(src, k, x[first, : k - 1])
            table = kernels.legendre_table(xk, A_src.shape[1])
            u = np.einsum("mn,mn->m", table, legendre_antiderivative(A_src)[group])
            a_src = np.einsum("mn,mn->m", table[:, :-1], A_src[group])
            del table  # not held through the root solve
            A = self._density_series(dst, k, y[first, : k - 1])
            C = legendre_antiderivative(A)[group]
            A = A[group]
            n = A.shape[1]
            root = _invert_cdf(
                C, u, lambda L: 0.5 * np.einsum("mn,mn->m", L[:, :n], A))
            # the solve resolves F to DEFAULT_ROOT_TOL only; x_k = +-1 maps
            # to +-1 exactly
            y[:, k - 1] = np.where(np.abs(xk) == 1.0, xk, root)
        return y, a_src / legendre_series(A, y[:, kmax - 1])

    def component(self, k: int, x):
        """T_k at points x of shape (m, k)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return self._solve(self.reference, self.target, x, k)[0][:, k - 1]

    def diag_deriv(self, k: int, x):
        """d/dx_k T_k = f_{ref;k}(x_[k]) / f_{tar;k}(T(x)_[k]).

        Both conditional densities are the series the solve builds.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return self._solve(self.reference, self.target, x, k)[1]


_DERIV_FLOOR = 1e-14


def pushforward_density(tmap, rho: Density, y):
    """Density of T_sharp(rho) at y: f_rho(T^{-1}(y)) / det dT(T^{-1}(y)).

    tmap is any triangular map exposing inverse/diag_deriv (exact or
    approximate).
    """
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    x = tmap.inverse(y)
    x = np.atleast_2d(x)
    det = np.ones(y.shape[0])
    for k in range(1, y.shape[1] + 1):
        dk = np.asarray(tmap.diag_deriv(k, x[:, :k]), dtype=np.float64)
        if np.any(dk <= _DERIV_FLOOR):
            raise ValueError("diagonal derivative underflow in pushforward")
        det *= dk
    return rho.evaluate(x) / det

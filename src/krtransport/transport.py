"""Exact Knothe-Rosenblatt triangular transport between densities.

Component k maps x_k through the reference conditional CDF and back
through the inverse of the target conditional CDF, with the prefix fed
through the earlier components. The conditional density f_k(prefix, .)
becomes one series per distinct prefix: rows of a batch with bitwise-equal
x_<k share one series in t of the marginal hat f_k(prefix, .). It is the
Chebyshev interpolant of hat f_k on nested Chebyshev-Lobatto points, 9 to
start with and 2n - 1 at each refinement, which reuses every value of the
last one; the tail of its coefficients decides its length. Each series is
divided by its own mass, so that the CDF (its exact Chebyshev
antiderivative) reaches 1 at t = 1 up to rounding; Chebyshev is the basis
every series in t is evaluated in.
The bracketed bisection-Newton root solve (``_invert_cdf``, through
``invert_monotone``; neither is a package export) works on that series
alone, once per distinct x_<=k (rows that share it share the root). It
starts each root at the regula-falsi point of the bracket [-1, 1], where
the CDF series gives F(-1) and F(1) in closed form, T_n(+-1) = (+-1)^n,
unless its caller passes a start (the approximate map does, for a
component whose CDF it has tabulated).
A solve also returns the diagonal of its Jacobian, the ratio of the two
density series at each k, for the components its caller reads, so one
inverse solve gives both the preimage and the determinant
``pushforward_density`` needs. The rational components of ``approx``
build their series by the same recipe, interpolation on Chebyshev-Lobatto
points (``_lobatto_rule``) and the Chebyshev antiderivative
(``_cdf_series``), and hand the density and CDF series to the same
solver, which reads the slope F' off its own Newton table and returns it
with the root. All point operations are vectorized over batches of points;
both maps reject points outside [-1, 1]^d, NaN included, and component
indices outside 1..d.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .density import Density, marginal_hat
from .polybasis import chebyshev_series

# Chebyshev-Lobatto points of the first and the largest conditional series;
# each refinement goes from n to 2n - 1 points, 9, 17, 33, ..., 257
DEFAULT_CDF_ORDER = 9
MAX_CDF_ORDER = 257
DEFAULT_ROOT_TOL = 1e-12
DEFAULT_ROOT_MAXIT = 200
# entries of the node array filled per marginal_hat call: one (m, n, k)
# array for all prefixes reached 17 MB in the d = 32 truncation study, whose
# peak RSS then swung between 83 and 97 MB from run to run (74-78 MB now)
_NODE_BLOCK = 1 << 19


def invert_monotone(F, y, *, fprime, ends, start=None):
    """Solve F(t) = y (m,) for strictly increasing vectorized F on [-1, 1].

    ends is (F(-1), F(1)) per row; F is not evaluated there. Each row starts
    at start (m,) when given, else at the regula-falsi point of the
    bracket, so a linear F is solved at its first evaluation; then it takes
    Newton steps with the slope fprime(t), safeguarded by bisection on a
    maintained bracket: a start or step that is not finite or leaves the
    open bracket falls back to its midpoint, so the start decides only
    where the solve begins, not what it converges to.
    Raises ValueError if [F(-1), F(1)] misses some y by more than
    DEFAULT_ROOT_TOL, or if some |F(t) - y| is above it after
    DEFAULT_ROOT_MAXIT steps. ``_invert_cdf`` is its one caller.
    """
    tol, maxiter = DEFAULT_ROOT_TOL, DEFAULT_ROOT_MAXIT
    m = y.shape[0]
    a, b = np.full(m, -1.0), np.full(m, 1.0)
    fa, fb = ends[0] - y, ends[1] - y
    if (fa > tol).any() or (fb < -tol).any():
        raise ValueError("target values do not bracket: monotonicity broken upstream")
    if start is None:
        with np.errstate(all="ignore"):
            start = a - fa * (b - a) / (fb - fa)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _inside(start, a, b)
        for it in range(maxiter + 1):
            ft = F(t) - y
            done = np.abs(ft) <= tol
            if done.all():
                return np.clip(t, -1.0, 1.0)
            if it == maxiter:
                break
            neg = ft < 0
            np.copyto(a, t, where=neg)
            np.copyto(b, t, where=~neg)
            step = _inside(t - ft / fprime(t), a, b)
            np.copyto(step, t, where=done)
            t = step
    resid = np.abs(ft[~done])
    raise ValueError(
        f"{resid.size} of {m} roots unconverged after {maxiter} steps: "
        f"worst residual {float(np.max(resid)):.3e} > tol {tol:g}"
    )


def _inside(t, a, b):
    """t where it is inside (a, b), the midpoint elsewhere: NaN fails both
    comparisons, and +-inf one of them."""
    return np.where((t > a) & (t < b), t, 0.5 * (a + b))


def _invert_cdf(C: np.ndarray, B: np.ndarray, u, start=None):
    """(t, F'(t)): t in [-1, 1] with F_i(t_i) = u_i, F_i the CDF in row i of C.

    C (m, n + 1): Chebyshev coefficients of CDFs with F(-1) = 0 and F(1) = 1
    up to rounding, the half antiderivatives (``_cdf_series``) of the
    density series B (m, n), so F' = B . T / 2; u is clipped into [0, 1].
    C and B may also be one row, which then serves every entry of u.
    start (m,), if given, is where each root's Newton solve begins (the
    approximate map passes one read off a table of F); None starts at the
    regula-falsi point of [-1, 1], as the exact transport always does.
    The bracket ends are read off C (T_n(1) = 1, T_n(-1) = (-1)^n), not
    evaluated. Each Newton step builds one table and reads F and F' off it;
    only F' at the latest t is kept, so no table outlives its step (holding
    it until the F' call raised the peak RSS of the d = 32 truncation study
    from 82 to 97 MB in a single-threaded run). The solve returns after an
    F evaluation at its root, so the F' returned is the one held from
    there, at no further evaluation.
    """
    n = B.shape[1]
    held = [None, None]  # the latest t and F' there

    def F(t):
        table = kernels.chebyshev_table(t, n)
        held[:] = t, 0.5 * np.einsum("mn,mn->m", table[:, :n], B)
        return np.einsum("mn,mn->m", table, C)

    def fprime(t):
        if held[0] is not t:
            F(t)
        return held[1]

    ends = (C[:, 0::2].sum(axis=1) - C[:, 1::2].sum(axis=1), C.sum(axis=1))
    t = invert_monotone(F, np.clip(u, 0.0, 1.0), fprime=fprime, ends=ends,
                        start=start)
    return t, held[1]


@lru_cache(maxsize=None)
def _lobatto_rule(n: int):
    """(x, M), read-only: the n Chebyshev-Lobatto points x_j = cos(pi j / N),
    N = n - 1, and the (n, n) matrix M with v @ M the Chebyshev coefficients
    of the degree-N interpolant of the values v (..., n) at x.

    x_j is computed as sin(pi (N - 2j) / (2N)), so the points are exactly
    antisymmetric and those of the (2n - 1)-point rule at even j are
    bitwise those of the n-point rule. M[j, l] = (2 / N) w_j w_l
    cos(pi j l / N) with w = 1/2 at the ends and 1 elsewhere; j l is
    reduced mod 2N in integers before the angle is formed, so every entry
    is accurate to a few ulps at any n.
    """
    N = n - 1
    j = np.arange(n)
    x = np.sin(np.pi * (N - 2 * j) / (2 * N))
    M = np.cos(np.pi * (np.outer(j, j) % (2 * N)) / N) * (2.0 / N)
    M[[0, -1]] *= 0.5
    M[:, [0, -1]] *= 0.5
    x.setflags(write=False)
    M.setflags(write=False)
    return x, M


def _cdf_series(B: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients (m, n+1) of the CDFs (1/2) int_{-1}^{t} of the
    densities with Chebyshev coefficients B (m, n).

    Exact, from int T_0 = T_1, int T_1 = T_2 / 4 and int T_l =
    T_{l+1} / (2(l+1)) - T_{l-1} / (2(l-1)) for l >= 2 (the recurrence of
    ``numpy.polynomial.chebyshev.chebint``); the constant term makes
    F(-1) = sum_l (-1)^l C_l = 0.
    """
    m, n = B.shape
    C = np.zeros((m, n + 1))
    C[:, 1:] = B / (4.0 * np.arange(1, n + 1))
    C[:, 1] = 0.5 * B[:, 0]
    C[:, 1:n - 1] -= B[:, 2:] / (4.0 * np.arange(1, n - 1))
    C[:, 0] = C[:, 1::2].sum(axis=1) - C[:, 2::2].sum(axis=1)
    return C


def _marginal_on_nodes(f: Density, k: int, prefix, t) -> np.ndarray:
    """(m, n) values hat f_k(prefix_i, t_j) for prefix (m, k-1) and t (n,).

    The (m, n, k) node array is filled _NODE_BLOCK entries at a time.
    """
    m, n = prefix.shape[0], t.shape[0]
    vals = np.empty((m, n))
    step = max(1, _NODE_BLOCK // (n * k))
    for lo in range(0, m, step):
        p = prefix[lo:lo + step]
        pts = np.empty((p.shape[0], n, k))
        pts[:, :, : k - 1] = p[:, None, :]
        pts[:, :, k - 1] = t
        vals[lo:lo + step] = marginal_hat(f, k, pts.reshape(-1, k)).reshape(-1, n)
    return vals


def _check_points(x: np.ndarray, d: int):
    """Raise ValueError unless the points x have d coordinates in [-1, 1]."""
    w = x.shape[-1] if x.ndim else 0
    if w != d:
        raise ValueError(f"expected points with {d} coordinates, got {w}")
    # NaN fails the comparison too
    if not np.all(np.abs(x) <= 1.0):
        raise ValueError(f"points must be finite and in [-1, 1]^{d}")


def _component_points(k: int, d: int, x) -> np.ndarray:
    """x as (m, k) float64; ValueError unless 1 <= k <= d and x is in [-1, 1]^k."""
    if not 1 <= k <= d:
        raise ValueError(f"component index {k} outside 1..{d}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _check_points(x, k)
    return x


def _prefix_groups(x: np.ndarray, kmax: int):
    """Yield (group, first) for the prefix lengths k = 0..kmax of the rows of x.

    Rows share an id in group iff x[:, :k] is bitwise equal; ids follow the
    lexicographic order of the int64 bit patterns, so they do not depend on
    the order of the rows. first holds one row index per id. One lexsort
    over the kmax columns orders the rows for every k: a group of prefix
    length k starts where a sorted row differs from the previous one in any
    of its first k columns. Levels are built one at a time, in O(m) memory.
    """
    bits = x[:, :kmax].view(np.int64)
    m = bits.shape[0]
    # lexsort takes its primary key last and rejects zero keys
    order = np.lexsort(bits.T[::-1]) if kmax else np.arange(m)
    new = np.zeros(m, dtype=bool)
    new[:1] = True
    for k in range(kmax + 1):
        if k:  # int64 np.diff wraps around: 0 only between equal bits
            new[1:] |= np.diff(bits[order, k - 1]) != 0
        group = np.empty(m, dtype=np.intp)
        group[order] = np.cumsum(new) - 1
        yield group, order[new]


@dataclass(frozen=True)
class ExactTransport:
    """The KR transport T with T_sharp(reference) = target."""

    reference: Density
    target: Density

    def __post_init__(self):
        if self.reference.d != self.target.d:
            raise ValueError("reference and target dimensions differ")

    def _density_series(self, f: Density, k: int, prefix) -> np.ndarray:
        """B (m, n): Chebyshev coefficients in t of f_k(prefix_i, t).

        hat f_k is interpolated on n Chebyshev-Lobatto points per prefix
        (``_lobatto_rule``) and each row is divided by its mass (1/2) int B,
        sum_l B_l / (1 - l^2) over even l, so every row has mass 1. n starts
        at DEFAULT_CDF_ORDER and goes to 2n - 1 while the last two
        coefficients exceed DEFAULT_ROOT_TOL, up to MAX_CDF_ORDER; the
        points of the n-point rule are the even points of the next, so each
        refinement samples hat f_k at its n - 1 new points only, and a
        series costs exactly its final n evaluations per prefix. Trailing
        columns below 1e-15 (rounding) are dropped, so a density linear in
        t keeps two.
        """
        n = DEFAULT_CDF_ORDER
        vals = _marginal_on_nodes(f, k, prefix, _lobatto_rule(n)[0])
        while True:
            B = vals @ _lobatto_rule(n)[1]
            mass = B[:, ::2] @ (1.0 / (1.0 - np.arange(0, n, 2) ** 2.0))
            if np.any(mass <= 0):
                raise ValueError("non-positive marginal encountered")
            B /= mass[:, None]
            tail = float(np.max(np.abs(B[:, -2:]), initial=0.0))
            if tail <= DEFAULT_ROOT_TOL:
                break
            if n >= MAX_CDF_ORDER:
                raise ValueError(
                    f"conditional density of component {k} is not resolved by "
                    f"{n} Chebyshev coefficients: tail {tail:.3e} > "
                    f"{DEFAULT_ROOT_TOL:g}"
                )
            n = 2 * n - 1
            finer = np.empty((vals.shape[0], n))
            finer[:, ::2] = vals
            finer[:, 1::2] = _marginal_on_nodes(f, k, prefix,
                                                _lobatto_rule(n)[0][1::2])
            vals = finer
        live = np.flatnonzero(np.any(np.abs(B) > 1e-15, axis=0))
        return B[:, : live[-1] + 1 if live.size else 1]

    def conditional_cdf(self, f: Density, k: int, prefix, t):
        """F_k(prefix, t) = (1/2) * integral_{-1}^{t} f_k(prefix, s) ds.

        prefix: (m, k-1); t: (m,). The exact antiderivative of the
        normalised series of f_k(prefix, .), built once per distinct prefix
        and evaluated at t.
        """
        prefix = np.atleast_2d(np.asarray(prefix, dtype=np.float64))
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        for group, first in _prefix_groups(prefix, prefix.shape[1]):
            pass  # the groups of the whole prefix are the last level
        C = _cdf_series(self._density_series(f, k, prefix[first]))
        return chebyshev_series(C[group], t)

    def forward(self, x):
        """T(x) for x of shape (m, d) or a single point."""
        return self._map(self.reference, self.target, x)

    def inverse(self, y):
        """S(y) with T(S(y)) = y: the KR map from target to reference."""
        return self._map(self.target, self.reference, y)

    def _map(self, src: Density, dst: Density, x):
        x = np.asarray(x, dtype=np.float64)
        _check_points(x, self.reference.d)
        y, _ = self._solve(src, dst, np.atleast_2d(x), x.shape[-1], nderiv=0)
        return y[0] if x.ndim == 1 else y

    def _solve(self, src: Density, dst: Density, x: np.ndarray, kmax: int,
               *, nderiv: int | None = None):
        """Components 1..kmax of the KR map from src to dst at x (m, >=kmax).

        Per coordinate solves F_dst(y_[k-1], y_k) = F_src(x_[k-1], x_k)
        on the series of the dst conditional density. Both series are
        built once per distinct prefix x_[k-1]: rows with equal x_[k-1]
        have equal y_[k-1], as the map is triangular. The root is solved
        once per distinct x_[k], on one representative row per group (in
        the group order, so independent of the row order), and copied to
        the other rows of its group: the result depends only on the
        distinct rows of x, not on their order or repetition. Returns
        y (m, kmax) and D (m, nderiv), the last nderiv entries of the
        diagonal of the Jacobian (all kmax when nderiv is None): the column
        of component k holds d/dx_k y_k = f_src;k(x) / f_dst;k(y), read off
        the same series; one table at x_k gives both F_src and f_src. This
        is the only place the exact diagonal derivatives are computed. D is
        the transpose of a (nderiv, m) array, so that each column is
        contiguous.
        """
        m = x.shape[0]
        y = np.empty((m, kmax))
        k0 = 0 if nderiv is None else kmax - nderiv  # components without D
        D = np.empty((kmax - k0, m))
        # group ids of rows by x_[k-1] (pre) and by x_[k] (group); sub maps
        # each x_[k] group to its x_[k-1] group
        levels = _prefix_groups(x, kmax)
        pre, pre_first = next(levels)
        for k, (group, first) in enumerate(levels, start=1):
            sub = pre[first]
            xk = x[first, k - 1]
            B_src = self._density_series(src, k, x[pre_first, : k - 1])
            table = kernels.chebyshev_table(xk, B_src.shape[1])
            u = np.einsum("mn,mn->m", table, _cdf_series(B_src)[sub])
            if k > k0:
                a_src = np.einsum("mn,mn->m", table[:, :-1], B_src[sub])
            del table, B_src  # not held through the root solve
            B = self._density_series(dst, k, y[pre_first, : k - 1])
            C = _cdf_series(B)[sub]
            B = B[sub]
            root, _ = _invert_cdf(C, B, u)
            # the solve resolves F to DEFAULT_ROOT_TOL only; x_k = +-1 maps
            # to +-1 exactly
            yk = np.where(np.abs(xk) == 1.0, xk, root)
            y[:, k - 1] = yk[group]
            if k > k0:
                D[k - 1 - k0] = (a_src / chebyshev_series(B, yk))[group]
            pre, pre_first = group, first
        return y, D.T

    def component(self, k: int, x):
        """T_k at points x of shape (m, k)."""
        x = _component_points(k, self.reference.d, x)
        return self._solve(self.reference, self.target, x, k, nderiv=0)[0][:, k - 1]

    def diag_deriv(self, k: int, x):
        """d/dx_k T_k = f_{ref;k}(x_[k]) / f_{tar;k}(T(x)_[k]).

        Both conditional densities are the series the solve builds.
        """
        x = _component_points(k, self.reference.d, x)
        return self._solve(self.reference, self.target, x, k, nderiv=1)[1][:, 0]

    def _pullback(self, y):
        """(x, D): x = S(y) at points y (m, d), and D (m, d) the diagonal of
        dT at x, from one inverse solve: d/dx_k T_k(x) = 1 / d/dy_k S_k(y)."""
        _check_points(y, self.reference.d)
        x, D = self._solve(self.target, self.reference, y, y.shape[1])
        return x, 1.0 / D


_DERIV_FLOOR = 1e-14


def pushforward_density(tmap, rho: Density, y):
    """Density of T_sharp(rho) at y: f_rho(T^{-1}(y)) / det dT(T^{-1}(y)).

    tmap is any triangular map (exact or approximate) exposing _pullback,
    which returns x = T^{-1}(y) and the diagonal of dT at x from one
    inverse solve; rho must have the map's dimension.
    """
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    x, D = tmap._pullback(y)
    if rho.d != x.shape[1]:
        raise ValueError(
            f"density has dimension {rho.d}, the map {x.shape[1]}")
    if np.any(D <= _DERIV_FLOOR):
        raise ValueError("diagonal derivative underflow in pushforward")
    det = np.ones(y.shape[0])
    for k in range(x.shape[1]):
        det *= D[:, k]
    return rho.evaluate(x) / det

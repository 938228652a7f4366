"""Exact Knothe-Rosenblatt triangular transport between densities.

Component k maps x_k through the reference conditional CDF and back
through the inverse of the target conditional CDF, with the prefix fed
through the earlier components. All point operations are vectorized over
batches of points; CDF inversion is a bracketed bisection-Newton hybrid.
"""

from dataclasses import dataclass, field

import numpy as np

from .density import Density, conditional
from .quadrature import integrate_from_minus_one

DEFAULT_CDF_ORDER = 32
DEFAULT_ROOT_TOL = 1e-12
DEFAULT_ROOT_MAXIT = 200


def invert_monotone(F, y, lo=-1.0, hi=1.0, fprime=None, tol=DEFAULT_ROOT_TOL,
                    maxiter=DEFAULT_ROOT_MAXIT):
    """Solve F(t) = y for strictly increasing vectorized F on [lo, hi].

    Newton steps (when fprime is given) safeguarded by bisection on a
    maintained bracket; converges for any continuous increasing F. y is
    clamped into [F(lo), F(hi)] to absorb quadrature-level overshoot.
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    m = y.shape[0]
    a = np.full(m, lo)
    b = np.full(m, hi)
    fa = np.asarray(F(a), dtype=np.float64) - y
    fb = np.asarray(F(b), dtype=np.float64) - y
    if np.any(fa > tol) or np.any(fb < -tol):
        raise ValueError("target values do not bracket: monotonicity broken upstream")
    # endpoints already solve (within tol) -> avoid division issues later
    t = 0.5 * (a + b)
    for _ in range(maxiter):
        ft = np.asarray(F(t), dtype=np.float64) - y
        done = np.abs(ft) <= tol
        if np.all(done):
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
    return np.clip(t, lo, hi)


@dataclass(frozen=True)
class ExactTransport:
    """The KR transport T with T_sharp(reference) = target."""

    reference: Density
    target: Density
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.reference.d != self.target.d:
            raise ValueError("reference and target dimensions differ")

    @property
    def d(self) -> int:
        return self.reference.d

    def conditional_cdf(self, f: Density, k: int, prefix, t):
        """F_k(prefix, t) = (1/2) * integral_{-1}^{t} f_k(prefix, s) ds.

        prefix: (m, k-1); t: (m,). A fixed DEFAULT_CDF_ORDER-point
        Gauss-Legendre rule is mapped onto [-1, t] per point.
        """
        prefix = np.atleast_2d(np.asarray(prefix, dtype=np.float64))
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))

        def fk(s):
            pts = np.concatenate(
                [np.repeat(prefix, s.shape[1], axis=0), s.reshape(-1, 1)], axis=1
            )
            return conditional(f, k, pts).reshape(s.shape)

        return integrate_from_minus_one(fk, t, DEFAULT_CDF_ORDER)

    def _conditional(self, f: Density, k: int, prefix, t):
        pts = np.concatenate(
            [np.atleast_2d(prefix), np.atleast_1d(t).reshape(-1, 1)], axis=1
        )
        return conditional(f, k, pts)

    def forward(self, x):
        """T(x) for x of shape (m, d) or a single point."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        y = self._solve(self.reference, self.target, pts, pts.shape[1])
        return y[0] if single else y

    def _solve(self, src: Density, dst: Density, x: np.ndarray,
               kmax: int) -> np.ndarray:
        """Components 1..kmax of the KR map from src to dst at x (m, >=kmax).

        Per coordinate solves F_dst(y_[k-1], y_k) = F_src(x_[k-1], x_k);
        returns y of shape (m, kmax).
        """
        m = x.shape[0]
        y = np.empty((m, kmax))
        for k in range(1, kmax + 1):
            xp = x[:, : k - 1]
            yp = y[:, : k - 1]
            u = self.conditional_cdf(src, k, xp, x[:, k - 1])

            def F(t):
                return self.conditional_cdf(dst, k, yp, t)

            def dF(t):
                return 0.5 * self._conditional(dst, k, yp, t)

            u = np.clip(u, 0.0, 1.0)
            y[:, k - 1] = invert_monotone(F, u, fprime=dF)
        return y

    def component(self, k: int, x):
        """T_k at points x of shape (m, k)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return self._solve(self.reference, self.target, x, k)[:, k - 1]

    def diag_deriv(self, k: int, x):
        """d/dx_k T_k = f_{ref;k}(x_[k]) / f_{tar;k}(T(x)_[k])."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = self._solve(self.reference, self.target, x, k)
        num = conditional(self.reference, k, x[:, :k])
        den = conditional(self.target, k, y)
        return num / den

    def inverse(self, y):
        """S(y) with T(S(y)) = y: the KR map from target to reference."""
        y = np.asarray(y, dtype=np.float64)
        single = y.ndim == 1
        pts = y[None, :] if single else y
        x = self._solve(self.target, self.reference, pts, pts.shape[1])
        return x[0] if single else x

    def swapped(self) -> "ExactTransport":
        """The transport with reference and target exchanged (this is T^{-1})."""
        if "swapped" not in self._cache:
            self._cache["swapped"] = ExactTransport(
                reference=self.target, target=self.reference
            )
        return self._cache["swapped"]


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

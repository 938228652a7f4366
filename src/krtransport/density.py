"""Positive probability densities on [-1,1]^d (w.r.t. the uniform measure).

A Density bundles a vectorized evaluator, optional closed-form marginal
oracle hat f_k, and optional per-coordinate anisotropy coefficients b_j
used to build weight vectors. Families without a marginal oracle fall
back to tensor quadrature over the trailing coordinates, which caps the
practical dimension at 5.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .quadrature import uniform_grid

MAX_QUADRATURE_DIM = 5
DEFAULT_MARGINAL_ORDER = 24
_EVAL_CHUNK = 1 << 18


@dataclass(frozen=True)
class Density:
    d: int
    evaluate: Callable[[np.ndarray], np.ndarray]  # (m, d) -> (m,) positive
    family: str
    params: dict
    marginal_oracle: Optional[Callable[[int, np.ndarray], np.ndarray]] = None
    anisotropy: Optional[tuple] = None


def uniform(d: int) -> Density:
    if d < 1:
        raise ValueError("dimension must be >= 1")

    def evaluate(x):
        return np.ones(x.shape[0])

    def oracle(k, x):
        return np.ones(x.shape[0])

    return Density(d=d, evaluate=evaluate, family="uniform", params={"d": d},
                   marginal_oracle=oracle)


def linear_density(c) -> Density:
    """f(y) = 1 + sum_j c_j y_j; requires sum |c_j| < 1 for positivity.

    Odd mu-moments vanish, so hat f_k(x) = 1 + sum_{j<=k} c_j x_j exactly.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1 or len(c) < 1:
        raise ValueError("c must be a nonempty coefficient vector")
    # written so that NaN fails it too
    if not np.sum(np.abs(c)) < 1.0:
        raise ValueError(
            f"sum |c_j| = {np.sum(np.abs(c)):.6g} is not < 1: positivity fails"
        )
    d = len(c)

    def evaluate(x):
        return 1.0 + x @ c

    def oracle(k, x):
        return 1.0 + x @ c[:k]

    return Density(
        d=d,
        evaluate=evaluate,
        family="linear",
        params={"c": c.tolist()},
        marginal_oracle=oracle,
        anisotropy=tuple(np.abs(c).tolist()),
    )


def gaussian_posterior(A, varsigma, sigma: float) -> Density:
    """Posterior of a linear-Gaussian model under a uniform prior.

    f(y) = exp(-|A y - varsigma|^2 / (2 sigma^2)) / Z with Z fixed by
    tensor quadrature so that the density integrates to 1 against mu.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    varsigma = np.atleast_1d(np.asarray(varsigma, dtype=np.float64))
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    m, d = A.shape
    if varsigma.shape != (m,):
        raise ValueError(f"data vector must have length {m}")
    if d > MAX_QUADRATURE_DIM:
        raise ValueError(
            f"gaussian_posterior is quadrature-normalized; d <= "
            f"{MAX_QUADRATURE_DIM} required, got {d}"
        )

    def unnormalized(x):
        r = x @ A.T - varsigma
        return np.exp(-0.5 * np.sum(r * r, axis=1) / sigma**2)

    # normalization grid: high order where affordable, reduced for d >= 4
    # to keep the node count sane; the integrand is entire so the reduced
    # order still integrates far below the downstream tolerance.
    n_z = 40 if d <= 3 else 16
    pts, w = uniform_grid(n_z, d).points_weights()
    z = 0.0
    for lo in range(0, pts.shape[0], _EVAL_CHUNK):
        sl = slice(lo, lo + _EVAL_CHUNK)
        z += float(unnormalized(pts[sl]) @ w[sl])
    if not np.isfinite(z) or z <= 0:
        raise ValueError("normalization quadrature failed")

    def evaluate(x):
        return unnormalized(x) / z

    b = tuple(np.linalg.norm(A, axis=0).tolist())
    return Density(
        d=d,
        evaluate=evaluate,
        family="gaussian_posterior",
        params={
            "A": A.tolist(),
            "varsigma": varsigma.tolist(),
            "sigma": float(sigma),
            "Z": z,
        },
        anisotropy=b if all(v > 0 for v in b) else None,
    )


@lru_cache(maxsize=None)
def _trailing_rule(dim: int):
    """(points, weights), read-only: the DEFAULT_MARGINAL_ORDER-point tensor
    rule on dim trailing coordinates, built once per dim.

    ``uniform_grid`` itself stays uncached, so grids built for one use
    (the normalisation of ``gaussian_posterior``) are not kept.
    """
    pts, w = uniform_grid(DEFAULT_MARGINAL_ORDER, dim).points_weights()
    pts.setflags(write=False)
    w.setflags(write=False)
    return pts, w


def marginal_hat(f: Density, k: int, x):
    """hat f_k(x) = integral of f over the trailing d-k coordinates (mu).

    x has shape (m, k); uses the closed-form oracle when available and a
    DEFAULT_MARGINAL_ORDER-point tensor rule otherwise (``_trailing_rule``).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if not (0 <= k <= f.d):
        raise ValueError(f"k must be in [0, {f.d}], got {k}")
    if x.shape[1] != k:
        raise ValueError(f"points must have {k} columns, got {x.shape[1]}")
    if f.marginal_oracle is not None:
        return np.asarray(f.marginal_oracle(k, x), dtype=np.float64)
    if k == f.d:
        return f.evaluate(x)
    pts, w = _trailing_rule(f.d - k)
    m, nt = x.shape[0], pts.shape[0]
    out = np.empty(m)
    # block over query points so the (m*nt, d) scratch stays bounded
    block = max(1, _EVAL_CHUNK // nt)
    for lo in range(0, m, block):
        xs = x[lo:lo + block]
        full = np.empty((xs.shape[0], nt, f.d))
        full[:, :, :k] = xs[:, None, :]
        full[:, :, k:] = pts
        vals = f.evaluate(full.reshape(-1, f.d)).reshape(xs.shape[0], nt)
        out[lo:lo + block] = vals @ w
    return out


def conditional(f: Density, k: int, x):
    """f_k(x) = hat f_k(x) / hat f_{k-1}(x_[k-1]), the conditional density."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if not (1 <= k <= f.d):
        raise ValueError(f"k must be in [1, {f.d}], got {k}")
    num = marginal_hat(f, k, x)
    den = marginal_hat(f, k - 1, x[:, : k - 1])
    if np.any(den <= 0):
        raise ValueError("non-positive marginal encountered")
    return num / den


def density_from_config(spec: dict) -> Density:
    """Build a density from the experiment-config JSON form."""
    spec = dict(spec)
    family = spec.pop("family", None)
    if family == "uniform":
        out = uniform(int(spec.pop("d")))
    elif family == "linear":
        out = linear_density(spec.pop("c"))
    elif family == "gaussian_posterior":
        out = gaussian_posterior(
            spec.pop("A"), spec.pop("varsigma"), float(spec.pop("sigma"))
        )
    elif family is None:
        raise ValueError("density spec missing 'family'")
    else:
        raise ValueError(f"unknown density family {family!r}")
    if spec:
        raise ValueError(f"unknown density spec keys: {sorted(spec)}")
    return out

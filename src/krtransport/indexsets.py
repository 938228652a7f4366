"""Anisotropic multiindex sets thresholded by the surplus weight gamma.

gamma(xi, nu) = xi_k^(-max(1, nu_k)) * prod_{j<k} xi_j^(-nu_j) for weights
xi_j > 1; the set Lambda_{k,eps} collects all nu with gamma >= eps. The
diagonal coordinate k always pays at least one power of xi_k, so the set
is empty whenever 1/xi_k < eps.
"""

import math
from dataclasses import dataclass

from .polybasis import canon, grlex_key, max_degree_per_dim, padded


@dataclass(frozen=True)
class WeightVector:
    """Per-coordinate anisotropy weights, all > 1."""

    xi: tuple

    def __post_init__(self):
        # written so that NaN fails it too
        if not all(x > 1.0 for x in self.xi):
            raise ValueError("all weights must exceed 1")

    def __len__(self):
        return len(self.xi)

    def __getitem__(self, i):
        return self.xi[i]

    def prefix(self, k: int) -> "WeightVector":
        return WeightVector(self.xi[:k])


def xi_from_anisotropy(b, alpha: float = 1.0) -> WeightVector:
    """xi_j = 1 + alpha / b_j from positive importance coefficients b_j."""
    b = [float(v) for v in b]
    if not all(v > 0 for v in b):
        raise ValueError("anisotropy coefficients must be positive")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return WeightVector(tuple(1.0 + alpha / v for v in b))


def gamma(xi: WeightVector, nu) -> float:
    """Surplus weight of multiindex nu (length <= k) under xi of length k."""
    k = len(xi)
    full = padded(canon(nu), k)
    if len(full) > k:
        raise ValueError(f"index {nu} longer than weight vector ({k})")
    out = xi[k - 1] ** (-max(1, full[k - 1]))
    for j in range(k - 1):
        out *= xi[j] ** (-full[j])
    return out


@dataclass(frozen=True)
class IndexSet:
    """Downward-closed set {nu : gamma(xi, nu) >= epsilon}, graded-lex order."""

    k: int
    epsilon: float
    members: tuple  # canonical multiindex tuples

    def __len__(self):
        return len(self.members)

    def max_degree_per_dim(self) -> list[int]:
        return max_degree_per_dim(self.members, self.k)

    def to_json(self) -> dict:
        return {"k": self.k, "epsilon": self.epsilon, "nus": [list(padded(nu, self.k)) for nu in self.members]}

    @classmethod
    def from_json(cls, obj: dict) -> "IndexSet":
        return cls(
            k=int(obj["k"]),
            epsilon=float(obj["epsilon"]),
            members=tuple(canon(nu) for nu in obj["nus"]),
        )


def enumerate_lambda(xi: WeightVector, epsilon: float) -> IndexSet:
    """Exact enumeration of Lambda_{k,eps} by bounded recursive descent.

    gamma is coordinatewise nonincreasing, so the search in each coordinate
    stops as soon as the running product drops below epsilon.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    k = len(xi)
    found: list[tuple] = []
    _descend(xi, epsilon, k, 0, 1.0, [0] * k, found)
    members = sorted((canon(nu) for nu in found), key=grlex_key)
    return IndexSet(k=k, epsilon=epsilon, members=tuple(members))


def _descend(xi, epsilon, k, j, prod, nu, found):
    if j == k - 1:
        # diagonal coordinate pays xi_k^(-max(1, v))
        factor = 1.0 / xi[j]
        v = 0
        while prod * factor ** max(1, v) >= epsilon:
            nu[j] = v
            found.append(tuple(nu))
            v += 1
        nu[j] = 0
        return
    # cheapest completion of the remaining coordinates charges 1/xi_k
    floor = 1.0 / xi[k - 1]
    factor = 1.0 / xi[j]
    cur = prod
    v = 0
    while cur * floor >= epsilon:
        nu[j] = v
        _descend(xi, epsilon, k, j + 1, cur, nu, found)
        cur *= factor
        v += 1
    nu[j] = 0


def cardinality_bound_simple(xi: WeightVector, epsilon: float) -> float:
    """(1 - log(eps)/log(xi_min))^k."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    xi_min = min(xi.xi)
    return (1.0 - math.log(epsilon) / math.log(xi_min)) ** len(xi)


def cardinality_bound_sharp(xi: WeightVector, epsilon: float) -> float:
    """(1/k!) (-log eps + sum_j log xi_j)^k * prod_j 1/log(xi_j)."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    k = len(xi)
    logs = [math.log(x) for x in xi.xi]
    return (
        (-math.log(epsilon) + sum(logs)) ** k
        / math.factorial(k)
        / math.prod(logs)
    )

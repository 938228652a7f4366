"""Triangular (Knothe-Rosenblatt) transport maps on [-1, 1]^d with sparse
rational-polynomial approximation and convergence diagnostics."""

from .approx import (
    ApproxTransport,
    RationalComponent,
    build_approx_transport,
    fit_component,
)
from .density import (
    Density,
    density_from_config,
    gaussian_posterior,
    linear_density,
    marginal_hat,
    uniform,
)
from .indexsets import (
    IndexSet,
    WeightVector,
    cardinality_bound_sharp,
    cardinality_bound_simple,
    enumerate_lambda,
    gamma,
    xi_from_anisotropy,
)
from .metrics import (
    DistanceReport,
    det_product_bound,
    distance_report,
    pushforward_distance,
)
from .polybasis import SparsePolynomial, project, sup_norm_bound
from .quadrature import TensorGrid, gauss_legendre, integrate, tensor_grid, uniform_grid
from .studies import (
    RateFit,
    SweepRecord,
    convergence_study,
    fit_rate,
    posterior_demo,
    rng_from_seed,
    truncation_study,
)
from .transport import ExactTransport, pushforward_density

__version__ = "0.1.0"

__all__ = [
    "ApproxTransport",
    "Density",
    "DistanceReport",
    "ExactTransport",
    "IndexSet",
    "RateFit",
    "RationalComponent",
    "SparsePolynomial",
    "SweepRecord",
    "TensorGrid",
    "WeightVector",
    "build_approx_transport",
    "cardinality_bound_sharp",
    "cardinality_bound_simple",
    "convergence_study",
    "density_from_config",
    "det_product_bound",
    "distance_report",
    "enumerate_lambda",
    "fit_component",
    "fit_rate",
    "gamma",
    "gauss_legendre",
    "gaussian_posterior",
    "integrate",
    "linear_density",
    "marginal_hat",
    "posterior_demo",
    "project",
    "pushforward_density",
    "pushforward_distance",
    "rng_from_seed",
    "sup_norm_bound",
    "tensor_grid",
    "truncation_study",
    "uniform",
    "uniform_grid",
    "xi_from_anisotropy",
]

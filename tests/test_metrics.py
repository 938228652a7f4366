"""Distance functionals and the determinant product-difference bound."""

import math

import numpy as np
import pytest

from krtransport.density import linear_density, uniform
from krtransport.metrics import (
    det_product_bound,
    distance_report,
    pushforward_distance,
)
from krtransport.quadrature import uniform_grid
from krtransport.transport import ExactTransport


GRID1 = uniform_grid(40, 1)
GRID2 = uniform_grid(24, 2)


def test_zero_distance_to_self():
    f = linear_density([0.3, 0.1])
    rep = distance_report(f, f, 2, GRID2)
    assert rep.hellinger == pytest.approx(0.0, abs=1e-14)
    assert rep.tv == pytest.approx(0.0, abs=1e-14)
    assert rep.kl == pytest.approx(0.0, abs=1e-14)


def test_tv_linear_vs_uniform_closed_form():
    # (1/2) int |c y| dmu = |c|/4 in 1d
    c = 0.6
    f = linear_density([c])
    g = uniform(1)
    rep = distance_report(f, g, 1, GRID1, oversample_tv=True)
    assert rep.tv == pytest.approx(c / 4, abs=1e-3)
    # the oversampled value resolves the kink better
    assert rep.tv_oversampled == pytest.approx(c / 4, abs=1e-4)


def test_hellinger_le_sqrt_tv():
    # H^2 <= TV for probability measures
    f = linear_density([0.5])
    g = uniform(1)
    rep = distance_report(f, g, 1, GRID1)
    assert rep.hellinger**2 <= rep.tv + 1e-12


def test_hellinger_bounded_by_half_l2_over_sqrt_min():
    # (1/2 int (f-g)^2 / min(f,g) dmu)^(1/2) dominates Hellinger
    f = linear_density([0.5])
    g = uniform(1)
    pts, w = GRID1.points_weights()
    fv, gv = f.evaluate(pts), g.evaluate(pts)
    bound = math.sqrt(0.5 * float(((fv - gv) ** 2 / np.minimum(fv, gv)) @ w))
    assert distance_report(f, g, 1, GRID1).hellinger <= bound + 1e-12


def test_kl_infinite_off_support():
    f = uniform(1)

    def g(x):
        return np.where(x[:, 0] > 0, 2.0, 0.0)

    assert distance_report(f, g, 1, GRID1).kl == math.inf


def test_kl_nonnegative():
    f = linear_density([0.4])
    g = linear_density([-0.2])
    assert distance_report(f, g, 1, GRID1).kl > 0


def test_w1_exact_1d_translation_free_case():
    # W1(f, uniform) = 2 int |F_f - F_u| dt; for linear density, F gap is
    # c(t^2-1)/4 so W1 = c/3
    c = 0.3
    f = linear_density([c])
    rep = distance_report(f, uniform(1), 1, GRID1)
    assert rep.w1_exact is True
    assert rep.w1 == pytest.approx(c / 3, abs=1e-10)


def test_w1_multid_is_flagged_bound():
    f = linear_density([0.3, 0.1])
    rep = distance_report(f, uniform(2), 2, GRID2)
    assert rep.w1_exact is False
    assert rep.w1 == pytest.approx(2.0 * math.sqrt(2) * rep.tv, rel=1e-12)


def test_w1_bound_dominates_exact_1d():
    # diam([-1,1]) * TV bounds the exact 1d value
    for c in [0.1, 0.3, 0.6]:
        rep = distance_report(linear_density([c]), uniform(1), 1, GRID1)
        assert rep.w1_exact is True
        assert 2.0 * rep.tv >= rep.w1


def test_distance_report_fields():
    f = linear_density([0.2])
    rep = distance_report(f, uniform(1), 1, GRID1, oversample_tv=True)
    assert rep.w1_exact is True
    assert rep.tv_oversampled is not None
    j = rep.to_json()
    assert set(j) == {"hellinger", "tv", "kl", "w1", "w1_exact",
                      "tv_oversampled", "grid_orders"}


def test_pushforward_distance_exact_transport_is_zero():
    rho = uniform(2)
    pi = linear_density([0.3, 0.2])
    t = ExactTransport(reference=rho, target=pi)
    rep = pushforward_distance(t, rho, pi, uniform_grid(12, 2))
    assert rep.hellinger < 1e-9
    assert rep.tv < 1e-9


def test_det_product_bound_holds_randomly():
    rng = np.random.Generator(np.random.Philox(21))
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = rng.uniform(0.2, 2.0, size=n)
        b = a + rng.uniform(-0.1, 0.1, size=n)
        b = np.maximum(b, 0.05)
        lhs, rhs = det_product_bound(a, b)
        assert lhs <= rhs + 1e-12


def test_det_product_bound_validation():
    with pytest.raises(ValueError):
        det_product_bound([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        det_product_bound([1.0, -1.0], [1.0, 1.0])


def test_negative_density_rejected():
    f = uniform(1)

    def g(x):
        return -np.ones(x.shape[0])

    with pytest.raises(ValueError):
        distance_report(f, g, 1, GRID1)

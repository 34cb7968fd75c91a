import math

import numpy as np
import pytest

from ebib.errors import DomainError
from ebib.posteriors import (
    GaussianPosterior,
    GridPosterior,
    NormalInverseGammaPosterior,
    PointMassPosterior,
)


def test_gaussian_posterior_basic():
    p = GaussianPosterior(1.5, 4.0)
    assert p.mean == 1.5 and p.sd == 2.0
    assert p.cdf(p.ppf(0.3)) == pytest.approx(0.3, abs=1e-12)
    xs = np.linspace(p.mean - 8 * p.sd, p.mean + 8 * p.sd, 4001)
    assert np.trapezoid(p.pdf(xs), xs) == pytest.approx(1.0, abs=1e-8)


def test_gaussian_posterior_rejects_negative_variance():
    with pytest.raises(DomainError):
        GaussianPosterior(0.0, -1.0)


@pytest.mark.parametrize("cls,args", [
    (GaussianPosterior, (math.nan, 1.0)), (GaussianPosterior, (math.inf, 1.0)),
    (GaussianPosterior, (0.0, math.nan)), (GaussianPosterior, (0.0, math.inf)),
    (PointMassPosterior, (math.nan,)), (PointMassPosterior, (-math.inf,)),
], ids=["mean-nan", "mean-inf", "var-nan", "var-inf", "location-nan", "location-inf"])
def test_posteriors_reject_non_finite_parameters(cls, args):
    # a NaN passed `var < 0` and gave a posterior whose pdf and cdf are NaN
    with pytest.raises(DomainError):
        cls(*args)


def test_point_mass_cdf():
    p = PointMassPosterior(2.0)
    assert p.cdf(1.9) == 0.0 and p.cdf(2.0) == 1.0


def test_grid_posterior_normalizes_and_inverts():
    x = np.linspace(-6, 6, 2001)
    dens = np.exp(-0.5 * x**2)  # unnormalized
    p = GridPosterior(x, dens)
    assert np.trapezoid(p.density, p.x) == pytest.approx(1.0, abs=1e-12)
    assert p.mean == pytest.approx(0.0, abs=1e-10)
    assert p.var == pytest.approx(1.0, abs=1e-4)
    assert p.cdf(0.0) == pytest.approx(0.5, abs=1e-6)
    assert p.ppf(p.cdf(1.3)) == pytest.approx(1.3, abs=1e-6)


def test_grid_posterior_rejects_bad_input():
    with pytest.raises(DomainError):
        GridPosterior([0.0, 1.0], [1.0, -0.5])
    with pytest.raises(DomainError):
        GridPosterior([0.0, 1.0], [0.0, 0.0])


def test_nig_beta_marginal_is_normalized_student_t():
    cov_unit = np.array([[0.5, 0.0], [0.0, 0.25]])
    p = NormalInverseGammaPosterior(alpha_mean=0.0, n=50, mu=[1.0, -2.0],
                                    beta_cov_unit=cov_unit, a1=24.5, a2=30.0)
    m = p.beta_marginal(0)
    assert np.trapezoid(m.density, m.x) == pytest.approx(1.0, abs=1e-6)
    assert m.mean == pytest.approx(1.0, abs=1e-3)
    assert p.sigma2_mean() == pytest.approx(30.0 / 23.5)

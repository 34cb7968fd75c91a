"""Exact and first-order predicted L1 distances between posteriors and
predictives, plus the credible-level discrepancy.

The first-order posterior prediction is sqrt(2/pi) * sqrt(Delta^t I0^{-1}
Delta / n), where Delta is the difference of prior score vectors at the true
parameter; the predictive analogue integrates the absolute projected
likelihood score and carries a 1/n rate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapabilityError, DomainError
from .models import Dataset
from .numerics import integrate, norm_cdf
from .posteriors import PointMassPosterior


def delta_theta0(family, theta0, lam1, lam2) -> np.ndarray:
    """Difference of prior score vectors at theta0 under the two settings."""
    return np.asarray(family.prior_gradient(theta0, lam1)) - np.asarray(
        family.prior_gradient(theta0, lam2)
    )


def predicted_l1_posterior(family, theta0, lam1, lam2, n: int) -> float:
    """First-order L1 expansion between the two posteriors."""
    delta = delta_theta0(family, theta0, lam1, lam2)
    fisher = family.fisher_information(theta0)
    quad = float(delta @ np.linalg.solve(fisher, delta))
    return math.sqrt(2.0 / math.pi) * math.sqrt(quad / n)


def _support_interval(p, q):
    lo = min(p.mean - 10.0 * max(p.sd, 1e-12), q.mean - 10.0 * max(q.sd, 1e-12))
    hi = max(p.mean + 10.0 * max(p.sd, 1e-12), q.mean + 10.0 * max(q.sd, 1e-12))
    return lo, hi


def l1_distance(p, q) -> float:
    """L1 distance between two 1-D posterior representations.

    Adaptive Simpson to an absolute 1e-9 over +-10 posterior sds around both
    means (tail error below 1e-12).  Both densities are evaluated on arrays:
    one call of each ``pdf`` per bisection level, on all its new abscissae.
    It can miss that tolerance: at n = 800 in predictive-rates it returns
    about 1e-9 for 19 of 50 seeds whose L1 is 2e-6 to 1e-5.
    """
    if isinstance(p, PointMassPosterior) and isinstance(q, PointMassPosterior):
        return 0.0 if p.location == q.location else 2.0
    if isinstance(p, PointMassPosterior) or isinstance(q, PointMassPosterior):
        return 2.0  # a point mass and a density are mutually singular
    if not (hasattr(p, "pdf") and hasattr(q, "pdf")):
        raise CapabilityError("l1_distance needs density-evaluable inputs")
    lo, hi = _support_interval(p, q)
    return float(integrate(lambda x: abs(p.pdf(x) - q.pdf(x)), lo, hi))


def l1_gaussian_equal_var(mean1: float, mean2: float, var: float) -> float:
    """Closed-form L1 between two Gaussians sharing a variance."""
    if var <= 0:
        raise DomainError("var must be positive")
    z = abs(mean1 - mean2) / (2.0 * math.sqrt(var))
    return 2.0 * (2.0 * norm_cdf(z) - 1.0)


def predicted_l1_predictive(family, theta0, lam1, lam2, n: int) -> float:
    """First-order L1 expansion between the two posterior predictives.

    n^{-1} * integral of |Delta^t I0^{-1} score(y)| p_theta0(y) dy over the
    single-observation sample space; the family evaluates the integral.
    """
    delta = delta_theta0(family, theta0, lam1, lam2)
    w = np.linalg.solve(family.fisher_information(theta0), delta)
    return family.predictive_score_l1(theta0, w) / n


def credible_discrepancy(family, data: Dataset, lam_build, lam_eval,
                         alpha: float) -> float:
    """Mass under the lam_eval posterior of the equal-tailed (1 - alpha)
    region built from the lam_build posterior, minus (1 - alpha)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    build = family.posterior(lam_build, data)
    evalp = family.posterior(lam_eval, data)
    lo, hi = evalp.cdf(build.ppf(np.array([alpha / 2.0, 1.0 - alpha / 2.0])))
    mass = float(hi - lo)
    return mass - (1.0 - alpha)

"""Evaluable posterior representations.

Each is a deterministic object that evaluates the exact posterior and draws
nothing (draws come from ``ebib.samplers``): closed-form 1-D Gaussians, point
masses (degenerate boundary priors), closed-form densities on a grid and the
conjugate M3 posterior.  M2 and M5 return a tuple, one per coefficient.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .numerics import norm_cdf, norm_logpdf, norm_pdf, norm_ppf


class GaussianPosterior:
    """Closed-form 1-D Gaussian posterior."""

    def __init__(self, mean: float, var: float):
        self.mean = float(mean)
        self.var = float(var)
        if not (math.isfinite(self.mean) and 0.0 <= self.var < math.inf):
            raise DomainError("mean must be finite and variance in [0, inf)")
        self.sd = math.sqrt(self.var)

    def pdf(self, x):
        return norm_pdf(x, self.mean, self.sd)

    def logpdf(self, x):
        return norm_logpdf(x, self.mean, self.sd)

    def cdf(self, x):
        return norm_cdf(x, self.mean, self.sd)

    def ppf(self, q):
        return norm_ppf(q, self.mean, self.sd)


class PointMassPosterior:
    """Degenerate posterior concentrated at a single point."""

    def __init__(self, location: float):
        self.location = float(location)
        if not math.isfinite(self.location):
            raise DomainError("location must be finite")
        self.mean = self.location
        self.var = 0.0
        self.sd = 0.0

    def cdf(self, x):
        return np.where(np.asarray(x) >= self.location, 1.0, 0.0)

    def ppf(self, q):
        return np.full(np.shape(q), self.location)


class GridPosterior:
    """1-D density tabulated on an abscissa grid (trapezoid normalized)."""

    def __init__(self, x, density):
        x = np.asarray(x, dtype=float)
        density = np.asarray(density, dtype=float)
        if x.ndim != 1 or x.shape != density.shape:
            raise DomainError("x and density must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(density))):
            raise DomainError("x and density must be finite")
        if np.any(density < 0):
            raise DomainError("grid density must be nonnegative")
        mass = np.trapezoid(density, x)
        if not mass > 0:
            raise DomainError("grid density has zero mass")
        self.x = x
        self.density = density / mass
        # cumulative trapezoid for cdf/ppf
        inc = 0.5 * np.diff(x) * (self.density[1:] + self.density[:-1])
        self._cdf = np.concatenate([[0.0], np.cumsum(inc)])
        self._cdf /= self._cdf[-1]
        self.mean = float(np.trapezoid(x * self.density, x))
        self.var = float(np.trapezoid((x - self.mean) ** 2 * self.density, x))
        self.sd = math.sqrt(max(self.var, 0.0))

    def pdf(self, x):
        return np.interp(x, self.x, self.density, left=0.0, right=0.0)

    def cdf(self, x):
        return np.interp(x, self.x, self._cdf, left=0.0, right=1.0)

    def ppf(self, q):
        return np.interp(q, self._cdf, self.x)


class NormalInverseGammaPosterior:
    """Conjugate posterior for the g-prior regression family.

    alpha | Y, s2 ~ N(alpha_mean, s2/n); beta | Y, s2 ~ N(mu, s2 * beta_cov_unit);
    s2 = sigma^2 | Y ~ InvGamma(a1, a2).
    """

    def __init__(self, alpha_mean, n, mu, beta_cov_unit, a1, a2):
        self.alpha_mean = float(alpha_mean)
        self.n = int(n)
        self.mu = np.asarray(mu, dtype=float)
        self.beta_cov_unit = np.asarray(beta_cov_unit, dtype=float)
        self.a1 = float(a1)
        self.a2 = float(a2)

    def sigma2_mean(self) -> float:
        if self.a1 <= 1:
            raise DomainError("posterior mean of sigma^2 undefined for a1 <= 1")
        return self.a2 / (self.a1 - 1.0)

    def beta_marginal(self, j: int) -> GridPosterior:
        """Marginal posterior density of one regression coefficient.

        beta_j | Y is a scaled, shifted Student-t with 2*a1 degrees of freedom.
        """
        from scipy.stats import t as student_t

        scale = math.sqrt(self.a2 / self.a1 * self.beta_cov_unit[j, j])
        dist = student_t(df=2 * self.a1, loc=self.mu[j], scale=scale)
        lo, hi = dist.ppf(1e-9), dist.ppf(1.0 - 1e-9)
        x = np.linspace(lo, hi, 1024)
        return GridPosterior(x, dist.pdf(x))

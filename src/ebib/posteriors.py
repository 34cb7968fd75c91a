"""Evaluable posterior representations.

Four kinds are used across the package: closed-form 1-D Gaussians, point
masses (degenerate boundary priors), grid densities and weighted sample
sets.  Products of independent 1-D representations cover the regression
families with orthogonal designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .numerics import norm_cdf, norm_logpdf, norm_pdf, norm_ppf


class GaussianPosterior:
    """Closed-form 1-D Gaussian posterior."""

    def __init__(self, mean: float, var: float):
        if var < 0:
            raise DomainError("variance must be nonnegative")
        self.mean = float(mean)
        self.var = float(var)
        self.sd = math.sqrt(self.var)

    def pdf(self, x):
        return norm_pdf(x, self.mean, self.sd)

    def logpdf(self, x):
        return norm_logpdf(x, self.mean, self.sd)

    def cdf(self, x):
        return norm_cdf(x, self.mean, self.sd)

    def ppf(self, q):
        return norm_ppf(q, self.mean, self.sd)

    def sample(self, rng, size):
        return rng.normal(self.mean, self.sd, size=size)

    def __repr__(self):
        return f"GaussianPosterior(mean={self.mean:.6g}, var={self.var:.6g})"


class PointMassPosterior:
    """Degenerate posterior concentrated at a single point."""

    def __init__(self, location: float):
        self.location = float(location)
        self.mean = self.location
        self.var = 0.0
        self.sd = 0.0

    def cdf(self, x):
        return np.where(np.asarray(x) >= self.location, 1.0, 0.0)

    def ppf(self, q):
        return np.full(np.shape(q), self.location)

    def sample(self, rng, size):
        return np.full(size, self.location)


class GridPosterior:
    """1-D density tabulated on an abscissa grid (trapezoid normalized)."""

    def __init__(self, x, density):
        x = np.asarray(x, dtype=float)
        density = np.asarray(density, dtype=float)
        if x.ndim != 1 or x.shape != density.shape:
            raise DomainError("x and density must be 1-D arrays of equal length")
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

    def sample(self, rng, size):
        return self.ppf(rng.uniform(size=size))


class SamplePosterior:
    """Posterior represented by (weighted) Monte Carlo draws."""

    def __init__(self, draws, weights=None):
        draws = np.atleast_2d(np.asarray(draws, dtype=float))
        if weights is None:
            weights = np.full(draws.shape[0], 1.0 / draws.shape[0])
        weights = np.asarray(weights, dtype=float)
        weights = weights / weights.sum()
        self.draws = draws
        self.weights = weights

    @property
    def ess(self) -> float:
        return float(1.0 / np.sum(self.weights**2))

    def marginal_grid(self, coord: int, grid=None, bandwidth=None) -> GridPosterior:
        """Gaussian-KDE estimate of one marginal, tabulated on a grid."""
        z = self.draws[:, coord]
        sd = float(np.std(z))
        if sd == 0:
            raise DomainError("degenerate sample marginal")
        if bandwidth is None:
            bandwidth = 1.06 * sd * len(z) ** -0.2
        if grid is None:
            grid = np.linspace(z.min() - 4 * bandwidth, z.max() + 4 * bandwidth, 512)
        dens = np.zeros_like(grid)
        # weighted KDE; chunked to bound memory
        for start in range(0, len(z), 4096):
            zz = z[start : start + 4096]
            ww = self.weights[start : start + 4096]
            dens += np.sum(
                ww[None, :]
                * np.exp(-0.5 * ((grid[:, None] - zz[None, :]) / bandwidth) ** 2),
                axis=1,
            )
        dens /= bandwidth * math.sqrt(2.0 * math.pi)
        return GridPosterior(grid, dens)


@dataclass
class ProductPosterior:
    """Product of independent 1-D posterior representations."""

    marginals: list = field(default_factory=list)

    def marginal(self, j: int):
        return self.marginals[j]


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

"""Registry of the seven model families.

Each family bundles the evaluators used elsewhere: log-likelihood,
hyperparameter-indexed log-prior and its gradient in the true parameter,
limiting Fisher information, closed-form oracle hyperparameter where one
exists, a posterior constructor, and the family-specific bodies behind the
generic entry points: closed-form marginal, data simulation, exact KL to the
marginal, the predictive score moment and the plug-in hyperparameter.

Families
    M1  normal mean, known variance, N(0, lam) prior on the mean
    M2  independent-prior Gaussian regression, known variance
    M3  g-prior Gaussian regression with intercept, unknown variance
    M4  Markov chain with independent Dirichlet rows on the transitions
    M5  Bayesian LASSO (Laplace prior on the coefficients)
    M6  Gaussian mixture, known component count, conjugate component priors
    M7  overfitted Gaussian-location mixture, Dirichlet(lam, ..., lam) weights
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import (
    CapabilityError,
    DegenerateOracleError,
    DomainError,
    InsufficientDataError,
    NonDifferentiableError,
)
from .numerics import log_gamma, low_rank_gaussian_logpdf, norm_logcdf, norm_logpdf
from .posteriors import (
    GaussianPosterior,
    GridPosterior,
    NormalInverseGammaPosterior,
    PointMassPosterior,
    ProductPosterior,
)

_SIMPLEX_TOL = 1e-12


# ---------------------------------------------------------------------------
# data containers


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed data: response y, optional design X, optional transition counts.

    A 2-d y holds one dataset per row, for families with ``rowwise_eval``.
    """

    y: np.ndarray | None = None
    X: np.ndarray | None = None
    counts: np.ndarray | None = None

    def __post_init__(self):
        if self.y is not None:
            object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.X is not None:
            X = np.atleast_2d(np.asarray(self.X, dtype=float))
            object.__setattr__(self, "X", X)
            if self.y is not None and X.shape[0] != self.y.shape[0]:
                raise DomainError("design and response row counts differ")
        if self.counts is not None:
            c = np.asarray(self.counts)
            if c.ndim != 2 or c.shape[0] != c.shape[1]:
                raise DomainError("transition counts must form a square matrix")
            if np.any(c < 0) or np.any(c != np.floor(c)):
                raise DomainError("transition counts must be nonnegative integers")
            object.__setattr__(self, "counts", c.astype(np.int64))

    @property
    def n(self) -> int:
        if self.counts is not None:
            return int(self.counts.sum())
        if self.y is not None:
            return int(self.y.shape[-1])
        return 0


def load_dataset_csv(path) -> Dataset:
    """Read a CSV with a named ``y`` column and optional ``x1..xd`` columns."""
    table = np.genfromtxt(path, delimiter=",", names=True)
    names = table.dtype.names
    if names is None or "y" not in names:
        raise DomainError("dataset CSV must have a header with a 'y' column")
    y = np.atleast_1d(table["y"])
    xcols = sorted(
        (c for c in names if c.startswith("x") and c[1:].isdigit()),
        key=lambda c: int(c[1:]),
    )
    X = None
    if xcols:
        X = np.column_stack([np.atleast_1d(table[c]) for c in xcols])
    return Dataset(y=y, X=X)


def load_counts_csv(path) -> Dataset:
    """Read a square integer transition-count matrix from a headerless CSV."""
    counts = np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
    return Dataset(counts=counts)


# parameter points


@dataclass(frozen=True, eq=False)
class RegressionParams:
    beta: np.ndarray
    sigma2: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, float)))
        if not self.sigma2 > 0:
            raise DomainError("sigma2 must be positive")


@dataclass(frozen=True, eq=False)
class GPriorParams:
    """g-prior regression parameter point, ordered (sigma, alpha, beta)."""

    sigma: float
    alpha: float
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, float)))
        if not self.sigma > 0:
            raise DomainError("sigma must be positive")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([[self.sigma, self.alpha], self.beta])

    @classmethod
    def from_vector(cls, v):
        v = np.asarray(v, float)
        return cls(sigma=float(v[0]), alpha=float(v[1]), beta=v[2:])


@dataclass(frozen=True, eq=False)
class MixtureParams:
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, float))
        m = np.atleast_1d(np.asarray(self.means, float))
        v = np.atleast_1d(np.asarray(self.variances, float))
        if abs(w.sum() - 1.0) > _SIMPLEX_TOL:
            raise DomainError("mixture weights must sum to 1")
        if np.any(w < 0):
            raise DomainError("mixture weights must be nonnegative")
        if np.any(v <= 0):
            raise DomainError("mixture variances must be positive")
        if not (w.shape == m.shape == v.shape):
            raise DomainError("weights, means, variances must share a length")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def k(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class DirichletRowsPosterior:
    """Posterior over a transition matrix: independent Dirichlet rows."""

    alpha: np.ndarray

    def mean(self) -> np.ndarray:
        return self.alpha / self.alpha.sum(axis=1, keepdims=True)


def _log_dirichlet(p, alpha) -> float:
    p = np.asarray(p, float)
    alpha = np.asarray(alpha, float)
    if np.any(alpha <= 0):
        raise DomainError("Dirichlet concentrations must be positive")
    if np.any(p <= 0):
        raise DomainError("Dirichlet density evaluated off the open simplex")
    return float(
        log_gamma(alpha.sum())
        - sum(log_gamma(a) for a in alpha)
        + np.sum((alpha - 1.0) * np.log(p))
    )


def _log_inv_gamma(x, a, b) -> float:
    if not x > 0:
        raise DomainError("inverse-gamma support is (0, inf)")
    return a * math.log(b) - log_gamma(a) - (a + 1.0) * math.log(x) - b / x


def _mixture_logpdf(y, w, mu, v):
    y = np.atleast_1d(np.asarray(y, float))
    comp = (
        -0.5 * np.log(2.0 * np.pi * v)[None, :]
        - 0.5 * (y[:, None] - mu[None, :]) ** 2 / v[None, :]
    )
    with np.errstate(divide="ignore"):
        lw = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)
    m = comp + lw[None, :]
    mx = m.max(axis=1, keepdims=True)
    return (mx[:, 0] + np.log(np.sum(np.exp(m - mx), axis=1))).astype(float)


def _simulate_regression(beta, s2, n, g, seed) -> Dataset:
    from .samplers import uniform_design

    X = uniform_design(n, beta.size, seed)
    return Dataset(y=X @ beta + g.normal(0.0, math.sqrt(s2), size=n), X=X)


def _simulate_mixture(t: MixtureParams, n, g) -> Dataset:
    z = g.choice(t.k, size=n, p=t.weights)
    return Dataset(y=t.means[z] + g.normal(size=n) * np.sqrt(t.variances[z]))


class ModelFamily:
    """Base class: the shared evaluator interface.

    A capability is the method itself: an optional evaluator either answers
    or raises ``CapabilityError``.
    """

    id = "base"
    # log_likelihood and log_marginal take one dataset per row of a 2-d y
    rowwise_eval = False

    def validate_hyperparam(self, lam, allow_boundary=False):
        """A scalar lam > 0, or 0 where ``allow_boundary``; families indexed
        by a vector or a matrix override this."""
        lam = float(lam)
        if lam < 0 or (lam == 0 and not allow_boundary):
            raise DomainError("lam must be positive (0 only as boundary)")
        return lam

    def log_likelihood(self, theta, data: Dataset) -> float:
        raise NotImplementedError

    def log_prior(self, theta, lam) -> float:
        raise NotImplementedError

    def prior_gradient(self, theta, lam) -> np.ndarray:
        raise NotImplementedError

    def oracle_hyperparameter(self, theta0):
        raise NotImplementedError

    def fisher_information(self, theta0) -> np.ndarray:
        raise CapabilityError(f"{self.id}: Fisher information not supported")

    def posterior(self, lam, data: Dataset):
        raise NotImplementedError

    def mle(self, data: Dataset):
        raise CapabilityError(f"{self.id}: closed-form MLE not available")

    def log_marginal(self, lam, data: Dataset) -> float:
        """Closed-form log m_lam(y)."""
        raise CapabilityError(f"{self.id}: no closed-form marginal")

    def simulate(self, theta0, n: int, g, seed) -> Dataset:
        """n > 0 draws from p_theta0: noise from ``g``, any design from ``seed``."""
        raise CapabilityError(f"{self.id}: simulation not supported")

    def kl_exact(self, theta0, lam, n: int, data: Dataset | None = None) -> float:
        """Closed-form KL(p_theta0 || m_lam) for n observations."""
        raise CapabilityError(f"{self.id}: exact Gaussian KL not available")

    def predictive_score_l1(self, theta0, w) -> float:
        """Integral of |w^t score(y)| p_theta0(y) dy over one observation."""
        raise CapabilityError(f"{self.id}: predictive expansion not supported")

    def pseudo_hyperparameter(self, data: Dataset):
        """Plug-in hyperparameter: the oracle formula evaluated at the MLE."""
        return self.oracle_hyperparameter(self.mle(data))


# ---------------------------------------------------------------------------
# M1: normal mean


class NormalMean(ModelFamily):
    """y_i iid N(theta, sigma2) with prior theta ~ N(0, lam)."""

    id = "M1"
    rowwise_eval = True

    def __init__(self, sigma2: float = 1.0):
        if not sigma2 > 0:
            raise DomainError("sigma2 must be positive")
        self.sigma2 = float(sigma2)

    def log_likelihood(self, theta, data):
        # one value per row of a 2-d y, each equal to the 1-d call on it
        r = np.subtract(data.y, float(theta), order="C")
        n = r.shape[-1]
        out = (-0.5 * n * math.log(2.0 * math.pi * self.sigma2)
               - 0.5 * np.sum(r**2, axis=-1) / self.sigma2)
        return float(out) if r.ndim == 1 else out

    def log_prior(self, theta, lam):
        lam = self.validate_hyperparam(lam)
        return float(norm_logpdf(float(theta), 0.0, math.sqrt(lam)))

    def prior_gradient(self, theta, lam):
        lam = self.validate_hyperparam(lam)
        return np.array([-float(theta) / lam])

    def oracle_hyperparameter(self, theta0):
        return float(theta0) ** 2

    def fisher_information(self, theta0):
        return np.array([[1.0 / self.sigma2]])

    def mle(self, data):
        return float(np.mean(data.y))

    def closed_form_mmle(self, data: Dataset) -> float:
        """Stationary point of the exact marginal, truncated at 0."""
        ybar = float(np.mean(data.y))
        return max(0.0, ybar**2 - self.sigma2 / data.n)

    def posterior(self, lam, data):
        n = data.n
        ybar = float(np.mean(data.y))
        if lam == math.inf:
            # flat-prior limit
            return GaussianPosterior(ybar, self.sigma2 / n)
        lam = self.validate_hyperparam(lam, allow_boundary=True)
        if lam == 0.0:
            return PointMassPosterior(0.0)
        denom = n * lam + self.sigma2
        return GaussianPosterior(n * lam * ybar / denom, lam * self.sigma2 / denom)

    def log_marginal(self, lam, data):
        lam = self.validate_hyperparam(lam, allow_boundary=True)
        return low_rank_gaussian_logpdf(data.y, 0.0, self.sigma2, lam)

    def simulate(self, theta0, n, g, seed):
        return Dataset(y=g.normal(float(theta0), math.sqrt(self.sigma2), size=n))

    def kl_exact(self, theta0, lam, n, data=None):
        lam = self.validate_hyperparam(lam, allow_boundary=True)
        s2 = self.sigma2
        t = float(theta0)
        r = n * lam / (s2 + n * lam)
        return 0.5 * (-r + n * t * t / (s2 + n * lam) + math.log1p(n * lam / s2))

    def predictive_score_l1(self, theta0, w):
        # score (y - theta0) / sigma2 and E|y - theta0| = sigma sqrt(2/pi)
        return abs(float(w[0])) * math.sqrt(2.0 / math.pi) / math.sqrt(self.sigma2)


# ---------------------------------------------------------------------------
# M2: independent-prior Gaussian regression (known variance)


class IndepNormalRegression(ModelFamily):
    """y = X beta + eps, eps ~ N(0, sigma2 I); prior beta_j ~ N(0, tau2_j)."""

    id = "M2"

    def __init__(self, sigma2: float = 1.0):
        if not sigma2 > 0:
            raise DomainError("sigma2 must be positive")
        self.sigma2 = float(sigma2)

    def validate_hyperparam(self, lam, allow_boundary=False):
        tau2 = np.atleast_1d(np.asarray(lam, float))
        if np.any(tau2 < 0) or (np.any(tau2 == 0) and not allow_boundary):
            raise DomainError("tau2 components must be positive (0 only as boundary)")
        return tau2

    def _beta(self, theta):
        return theta.beta if isinstance(theta, RegressionParams) else np.atleast_1d(np.asarray(theta, float))

    def log_likelihood(self, theta, data):
        r = data.y - data.X @ self._beta(theta)
        n = r.size
        return float(
            -0.5 * n * math.log(2.0 * math.pi * self.sigma2)
            - 0.5 * np.sum(r**2) / self.sigma2
        )

    def log_prior(self, theta, lam):
        tau2 = self.validate_hyperparam(lam)
        beta = self._beta(theta)
        return float(np.sum(norm_logpdf(beta, 0.0, np.sqrt(tau2))))

    def prior_gradient(self, theta, lam):
        tau2 = self.validate_hyperparam(lam)
        return -self._beta(theta) / tau2

    def oracle_hyperparameter(self, theta0):
        # zero coefficients map to the boundary tau2 = 0
        return self._beta(theta0) ** 2

    def mle(self, data):
        beta, *_ = np.linalg.lstsq(data.X, data.y, rcond=None)
        return RegressionParams(beta=beta, sigma2=self.sigma2)

    def posterior(self, lam, data):
        tau2 = self.validate_hyperparam(lam, allow_boundary=True)
        X, y = data.X, data.y
        d = X.shape[1]
        if tau2.size != d:
            raise DomainError("tau2 length must match design columns")
        active = np.flatnonzero(tau2 > 0)
        marginals = [PointMassPosterior(0.0)] * d
        if active.size:
            Xa = X[:, active]
            prec = Xa.T @ Xa / self.sigma2 + np.diag(1.0 / tau2[active])
            cov = np.linalg.inv(prec)
            mean = cov @ (Xa.T @ y) / self.sigma2
            for k, j in enumerate(active):
                marginals[j] = GaussianPosterior(mean[k], cov[k, k])
        post = ProductPosterior(marginals=list(marginals))
        return post

    def log_marginal(self, lam, data):
        tau2 = self.validate_hyperparam(lam, allow_boundary=True)
        X, y, n = data.X, data.y, data.n
        s2 = self.sigma2
        active = np.flatnonzero(tau2 > 0)
        yy = float(y @ y)
        if active.size == 0:
            return -0.5 * (n * math.log(2.0 * math.pi * s2) + yy / s2)
        Xa = X[:, active]
        Da = tau2[active]
        G = Xa.T @ Xa
        M = G + s2 * np.diag(1.0 / Da)
        b = Xa.T @ y
        quad = (yy - float(b @ np.linalg.solve(M, b))) / s2
        sign, logdet_small = np.linalg.slogdet(
            np.eye(active.size) + (G * Da[None, :]) / s2
        )
        if sign <= 0:
            raise DomainError("marginal covariance not positive definite")
        logdet = n * math.log(s2) + logdet_small
        return -0.5 * (n * math.log(2.0 * math.pi) + logdet + quad)

    def simulate(self, theta0, n, g, seed):
        return _simulate_regression(self._beta(theta0), self.sigma2, n, g, seed)

    def kl_exact(self, theta0, lam, n, data=None):
        """KL(N(X beta0, s2 I) || N(0, s2 I + X D X^t)) via d-dimensional identities.

        The design is fixed, so ``data`` must carry ``X``; ``n`` is its row count.
        """
        if data is None:
            raise DomainError("M2 exact KL needs the design in data.X")
        tau2 = self.validate_hyperparam(lam, allow_boundary=True)
        X = data.X
        s2 = self.sigma2
        mu = X @ self._beta(theta0)
        active = np.flatnonzero(tau2 > 0)
        if active.size == 0:
            return 0.5 * float(mu @ mu) / s2
        Xa = X[:, active]
        Da = tau2[active]
        G = Xa.T @ Xa
        M = s2 * np.diag(1.0 / Da) + G
        Minv_G = np.linalg.solve(M, G)
        tr_term = -float(np.trace(Minv_G))
        b = Xa.T @ mu
        quad = (float(mu @ mu) - float(b @ np.linalg.solve(M, b))) / s2
        sign, logdet = np.linalg.slogdet(np.eye(active.size) + (G * Da[None, :]) / s2)
        if sign <= 0:
            raise DomainError("marginal covariance not positive definite")
        return 0.5 * (tr_term + quad + logdet)


# ---------------------------------------------------------------------------
# M3: g-prior regression


class GPriorRegression(ModelFamily):
    """y = alpha 1 + X beta + eps with the g-prior on beta.

    The prior indexed by lam = g is: pi(alpha, sigma2) proportional to 1/sigma2
    and beta | sigma2 ~ N(0, n*lam*sigma2 (X^t X)^{-1}); for the score objects
    the limiting form beta | sigma2 ~ N(0, lam*sigma2 V^{-1}) with
    V = lim X^t X / n is used.  The parameter point is theta = (sigma, alpha, beta).
    """

    id = "M3"

    def __init__(self, V=None):
        self.V = None if V is None else np.atleast_2d(np.asarray(V, float))

    def _require_V(self):
        if self.V is None:
            raise DomainError("this operation needs the design limit V = lim X^tX/n")
        return self.V

    @staticmethod
    def _check_centered(X):
        colsums = np.abs(X.sum(axis=0))
        if np.any(colsums > 1e-8 * max(1.0, X.shape[0])):
            raise DomainError("g-prior design must be column-centered (1^t X = 0)")

    def log_likelihood(self, theta, data):
        r = data.y - theta.alpha - data.X @ theta.beta
        n = r.size
        s2 = theta.sigma**2
        return float(-0.5 * n * math.log(2.0 * math.pi * s2) - 0.5 * np.sum(r**2) / s2)

    def log_prior(self, theta, lam):
        # limiting prior; the improper 1/sigma2 factor contributes -2 log sigma
        lam = self.validate_hyperparam(lam)
        V = self._require_V()
        p = theta.beta.size
        s2 = theta.sigma**2
        quad = float(theta.beta @ V @ theta.beta)
        sign, logdetV = np.linalg.slogdet(V)
        if sign <= 0:
            raise DomainError("V must be positive definite")
        return float(
            -2.0 * math.log(theta.sigma)
            - 0.5 * p * math.log(2.0 * math.pi * lam * s2)
            + 0.5 * logdetV
            - quad / (2.0 * lam * s2)
        )

    def prior_gradient(self, theta, lam):
        lam = self.validate_hyperparam(lam)
        V = self._require_V()
        p = theta.beta.size
        s = theta.sigma
        quad = float(theta.beta @ V @ theta.beta)
        d_sigma = -2.0 / s - p / s + quad / (lam * s**3)
        d_alpha = 0.0
        d_beta = -(V @ theta.beta) / (lam * s**2)
        return np.concatenate([[d_sigma, d_alpha], d_beta])

    def oracle_hyperparameter(self, theta0, data: Dataset | None = None):
        beta0 = theta0.beta
        p = beta0.size
        if p <= 2:
            raise DegenerateOracleError("g-prior oracle needs more than 2 coefficients")
        if data is not None:
            G = data.X.T @ data.X / data.n
        else:
            G = self._require_V()
        return float(beta0 @ G @ beta0) / (theta0.sigma**2 * (p - 2.0))

    def pseudo_hyperparameter(self, data):
        # the plug-in uses the empirical Gram matrix, not the design limit V
        return self.oracle_hyperparameter(self.mle(data), data)

    def fisher_information(self, theta0):
        V = self._require_V()
        p = V.shape[0]
        s2 = theta0.sigma**2
        out = np.zeros((p + 2, p + 2))
        out[0, 0] = 2.0 / s2
        out[1, 1] = 1.0 / s2
        out[2:, 2:] = V / s2
        return out

    def mle(self, data):
        X, y, n = data.X, data.y, data.n
        self._check_centered(X)
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        alpha = float(np.mean(y))
        sse = float(np.sum((y - alpha - X @ beta) ** 2))
        return GPriorParams(sigma=math.sqrt(sse / n), alpha=alpha, beta=beta)

    @staticmethod
    def suff_stats(data: Dataset):
        """(SSR, SSE, beta_hat) for the centered-design decomposition."""
        X, y = data.X, data.y
        GPriorRegression._check_centered(X)
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        yc = y - np.mean(y)
        ssr = float(beta @ X.T @ X @ beta)
        sse = float(np.sum((yc - X @ beta) ** 2))
        return ssr, sse, beta

    def closed_form_mmle(self, data: Dataset) -> float:
        """Truncated F-ratio form of the marginal-likelihood maximizer."""
        n, p = data.n, data.X.shape[1]
        if n <= p + 1:
            raise InsufficientDataError("need n > d - 1 for the g-prior MMLE")
        ssr, sse, _ = self.suff_stats(data)
        return max((ssr / p) / (sse / (n - p - 1.0)) - 1.0, 0.0) / n

    def posterior(self, lam, data):
        lam = self.validate_hyperparam(lam)
        X, y, n = data.X, data.y, data.n
        p = X.shape[1]
        if n <= p + 2:
            raise InsufficientDataError("g-prior posterior needs n > d")
        ssr, sse, beta_hat = self.suff_stats(data)
        shrink = n * lam / (n * lam + 1.0)
        beta_cov_unit = np.linalg.inv(X.T @ X) * shrink
        mu = shrink * beta_hat
        a1 = (n - 1.0) / 2.0
        a2 = sse / 2.0 + ssr / (2.0 * (n * lam + 1.0))
        return NormalInverseGammaPosterior(
            alpha_mean=float(np.mean(y)), n=n, mu=mu,
            beta_cov_unit=beta_cov_unit, a1=a1, a2=a2,
        )

    def log_marginal(self, lam, data):
        # flat prior on the intercept and 1/sigma2 on the variance: the additive
        # constant follows the convention pi(alpha, sigma2) = 1/sigma2
        lam = self.validate_hyperparam(lam, allow_boundary=True)
        n, p = data.n, data.X.shape[1]
        if n <= p + 1:
            raise DomainError("need n > d - 1")
        ssr, sse, _ = self.suff_stats(data)
        q = sse + ssr / (1.0 + n * lam)
        return (
            -0.5 * math.log(n)
            - 0.5 * (n - 1.0) * math.log(2.0 * math.pi)
            + log_gamma((n - 1.0) / 2.0)
            - 0.5 * p * math.log(1.0 + n * lam)
            - 0.5 * (n - 1.0) * math.log(q / 2.0)
        )

    def simulate(self, theta0, n, g, seed):
        from .samplers import uniform_design

        X = uniform_design(n, theta0.beta.size, seed)
        X = X - X.mean(axis=0)  # the g-prior family requires 1^t X = 0
        y = theta0.alpha + X @ theta0.beta + g.normal(0.0, theta0.sigma, size=n)
        return Dataset(y=y, X=X)


# ---------------------------------------------------------------------------
# M4: Markov chain with Dirichlet rows


class MarkovDirichlet(ModelFamily):
    """K-state chain; rows of the transition matrix get Dirichlet(alpha_i) priors."""

    id = "M4"

    #: default oracle/MMLE search box per concentration coordinate
    BOX = (1e-3, 50.0)

    def __init__(self, K: int):
        if K < 2:
            raise DomainError("need at least 2 states")
        self.K = int(K)

    def validate_hyperparam(self, lam, allow_boundary=False):
        alpha = np.atleast_2d(np.asarray(lam, float))
        if alpha.shape != (self.K, self.K):
            raise DomainError("alpha must be a K x K matrix")
        if np.any(alpha < 0) or (np.any(alpha == 0) and not allow_boundary):
            raise DomainError("alpha entries must be positive (0 only as boundary)")
        return alpha

    @staticmethod
    def _rows(theta):
        P = np.atleast_2d(np.asarray(theta, float))
        if np.any(np.abs(P.sum(axis=1) - 1.0) > _SIMPLEX_TOL) or np.any(P < 0):
            raise DomainError("transition rows must lie on the simplex")
        return P

    def log_likelihood(self, theta, data):
        # combinatorial constant fixed to 0: likelihood up to proportionality
        P = self._rows(theta)
        counts = data.counts
        total = 0.0
        for i in range(self.K):
            for j in range(self.K):
                c = counts[i, j]
                if c == 0:
                    continue
                if P[i, j] <= 0:
                    return -math.inf
                total += c * math.log(P[i, j])
        return total

    def log_prior(self, theta, lam):
        alpha = self.validate_hyperparam(lam)
        P = self._rows(theta)
        return sum(_log_dirichlet(P[i], alpha[i]) for i in range(self.K))

    def prior_gradient(self, theta, lam):
        # free coordinates: first K-1 entries of each row, stacked row-major
        alpha = self.validate_hyperparam(lam)
        P = self._rows(theta)
        grad = np.empty((self.K, self.K - 1))
        for i in range(self.K):
            last = (alpha[i, -1] - 1.0) / P[i, -1]
            grad[i] = (alpha[i, :-1] - 1.0) / P[i, :-1] - last
        return grad.ravel()

    def oracle_hyperparameter(self, theta0, seed: int = 0):
        """Row-wise box-constrained maximization of the Dirichlet log-density.

        The literal supremum over all concentrations is unattained (the density
        at an interior point grows without bound along the ray through the row),
        so the search is over the compact box ``BOX`` per coordinate.
        """
        P = self._rows(theta0)
        lo, hi = self.BOX
        out = np.empty((self.K, self.K))
        for i in range(self.K):
            out[i] = _maximize_dirichlet_row(P[i], lo, hi, seed=seed, row=i)
        return out

    def posterior(self, lam, data):
        alpha = self.validate_hyperparam(lam)
        return DirichletRowsPosterior(alpha=alpha + data.counts)

    def log_marginal(self, lam, data):
        from .marginal import markov_log_marginal

        return markov_log_marginal(data.counts, self.validate_hyperparam(lam))

    def simulate(self, theta0, n, g, seed):
        P = self._rows(theta0)
        K = P.shape[0]
        path = np.empty(n + 1, dtype=np.int64)
        path[0] = g.integers(K)
        for t in range(n):
            path[t + 1] = g.choice(K, p=P[path[t]])
        counts = np.zeros((K, K), dtype=np.int64)
        np.add.at(counts, (path[:-1], path[1:]), 1)
        return Dataset(y=path.astype(float), counts=counts)


def box_argmin(neg, lo, hi, g, maxiter, xatol):
    """Nelder-Mead minimizer of ``neg``, which sees its argument clipped to the
    box [lo, hi], from all ones and four ``g``-uniform starts on [lo, min(hi, 10)].

    Returns the clipped result of the strictly best start, the total
    iterations and whether every start converged.
    """
    from scipy.optimize import minimize

    starts = [np.ones(lo.size)] + [g.uniform(lo, np.minimum(hi, 10.0))
                                   for _ in range(4)]
    best, iters, converged = None, 0, True
    for x0 in starts:
        res = minimize(lambda a: neg(np.clip(a, lo, hi)), x0, method="Nelder-Mead",
                       bounds=list(zip(lo, hi)),
                       options={"maxiter": maxiter, "xatol": xatol, "fatol": 1e-12})
        iters += res.nit
        converged = converged and bool(res.success)
        if best is None or res.fun < best[0]:
            best = (res.fun, np.clip(res.x, lo, hi))
    return best[1], iters, converged


def _maximize_dirichlet_row(p, lo, hi, seed, row):
    """argmax over alpha in [lo, hi]^K of log Dirichlet(p; alpha).

    Zero-probability cells are pinned to the lower edge and the reduced
    Dirichlet over the positive cells is maximized.
    """
    K = p.size
    out = np.full(K, lo)
    pos = np.flatnonzero(p > 0)
    if pos.size == 1:
        # one-category Dirichlet: constant density, any concentration maximizes
        out[pos[0]] = 1.0
        return out
    pp = p[pos]
    m = pos.size

    def neg(a):
        try:
            return -_log_dirichlet(pp, a)
        except DomainError:
            return math.inf

    g = rngmod.stream(seed, "dirichlet-row-oracle", row)
    out[pos] = box_argmin(neg, np.full(m, lo), np.full(m, hi), g, 4000, 1e-10)[0]
    return out


# ---------------------------------------------------------------------------
# M5: Bayesian LASSO


class BayesLasso(ModelFamily):
    """y = X beta + eps with the Laplace prior (lam/2 sigma) exp(-lam |beta_j| / sigma).

    ``sigma2`` fixes the noise variance (merging and closed-form paths); pass
    ``sigma2=None`` for the 1/sigma2 improper-prior variant used with Gibbs.
    """

    id = "M5"

    def __init__(self, sigma2: float | None = 1.0, V=None):
        if sigma2 is not None and not sigma2 > 0:
            raise DomainError("sigma2 must be positive")
        self.sigma2 = None if sigma2 is None else float(sigma2)
        self.V = None if V is None else np.atleast_2d(np.asarray(V, float))

    @property
    def sigma_known(self) -> bool:
        return self.sigma2 is not None

    def validate_hyperparam(self, lam, allow_boundary=False):
        lam = float(lam)
        if lam <= 0:
            raise DomainError("lam must be positive")
        return lam

    def _unpack(self, theta):
        if isinstance(theta, RegressionParams):
            s2 = self.sigma2 if self.sigma_known else theta.sigma2
            return theta.beta, s2
        if not self.sigma_known:
            raise DomainError("unknown-sigma variant needs RegressionParams")
        return np.atleast_1d(np.asarray(theta, float)), self.sigma2

    def log_likelihood(self, theta, data):
        beta, s2 = self._unpack(theta)
        r = data.y - data.X @ beta
        n = r.size
        return float(-0.5 * n * math.log(2.0 * math.pi * s2) - 0.5 * np.sum(r**2) / s2)

    def log_prior(self, theta, lam):
        lam = self.validate_hyperparam(lam)
        beta, s2 = self._unpack(theta)
        s = math.sqrt(s2)
        val = beta.size * math.log(lam / (2.0 * s)) - lam * np.sum(np.abs(beta)) / s
        if not self.sigma_known:
            val -= math.log(s2)
        return float(val)

    def prior_gradient(self, theta, lam):
        lam = self.validate_hyperparam(lam)
        beta, s2 = self._unpack(theta)
        if np.any(beta == 0):
            raise NonDifferentiableError(
                "Laplace log-prior has no gradient at beta_j = 0"
            )
        return -lam * np.sign(beta) / math.sqrt(s2)

    def oracle_hyperparameter(self, theta0):
        beta, s2 = self._unpack(theta0)
        total = float(np.sum(np.abs(beta)))
        if total == 0:
            raise DegenerateOracleError("oracle rate undefined when all beta are 0")
        return beta.size * math.sqrt(s2) / total

    def fisher_information(self, theta0):
        if not self.sigma_known:
            raise CapabilityError("M5 Fisher information requires known sigma2")
        if self.V is None:
            raise DomainError("this operation needs the design limit V = lim X^tX/n")
        return self.V / self.sigma2

    def mle(self, data):
        beta, *_ = np.linalg.lstsq(data.X, data.y, rcond=None)
        sse = float(np.sum((data.y - data.X @ beta) ** 2))
        return RegressionParams(beta=beta, sigma2=sse / data.n)

    @staticmethod
    def _check_orthogonal(X):
        G = X.T @ X
        off = G - np.diag(np.diag(G))
        if np.max(np.abs(off)) > 1e-8 * np.max(np.diag(G)):
            raise CapabilityError("closed-form path requires orthogonal design columns")
        return np.sqrt(np.diag(G))

    def coordinate_posterior(self, lam, data, j: int, grid_points: int = 2001):
        """Closed-form marginal posterior of beta_j (orthogonal X, known sigma)."""
        lam = self.validate_hyperparam(lam)
        if not self.sigma_known:
            raise CapabilityError("closed-form path requires known sigma2")
        norms = self._check_orthogonal(data.X)
        s = math.sqrt(self.sigma2)
        sj = norms[j]
        bj = float(data.X[:, j] @ data.y) / sj**2
        sd = s / sj
        x = np.linspace(bj - 10.0 * sd - 2.0 * lam * sd**2 / s, bj + 10.0 * sd + 2.0 * lam * sd**2 / s, grid_points)
        logd = -0.5 * (x - bj) ** 2 / sd**2 - lam * np.abs(x) / s
        logd -= logd.max()
        return GridPosterior(x, np.exp(logd))

    def posterior(self, lam, data):
        if self.sigma_known:
            try:
                d = data.X.shape[1]
                marginals = [self.coordinate_posterior(lam, data, j) for j in range(d)]
                return ProductPosterior(marginals=marginals)
            except CapabilityError:
                pass
        from .samplers import GibbsConfig, gibbs_lasso
        from .posteriors import SamplePosterior

        chain = gibbs_lasso(data, self.validate_hyperparam(lam),
                            sigma2=self.sigma2, cfg=GibbsConfig())
        d = data.X.shape[1]
        return SamplePosterior(chain.draws[:, :d])

    def log_marginal(self, lam, data):
        lam = self.validate_hyperparam(lam)
        if not self.sigma_known:
            raise CapabilityError("closed-form M5 marginal requires known sigma2")
        norms = self._check_orthogonal(data.X)
        s = math.sqrt(self.sigma2)
        X, y, n = data.X, data.y, data.n
        bhat = (X.T @ y) / norms**2
        sse = float(np.sum((y - X @ bhat) ** 2))
        out = -0.5 * n * math.log(2.0 * math.pi * s * s) - sse / (2.0 * s * s)
        for sj, bj in zip(norms, bhat):
            out += 0.5 * math.log(2.0 * math.pi) + math.log(s / sj)
            out += math.log(lam / (2.0 * s))
            out += self.laplace_gauss_log_normalizer(float(bj), float(sj), s, lam)
        return float(out)

    def simulate(self, theta0, n, g, seed):
        return _simulate_regression(*self._unpack(theta0), n, g, seed)

    @staticmethod
    def laplace_gauss_log_normalizer(bhat: float, colnorm: float, sigma: float, lam: float) -> float:
        """log C(lam): normalizer of exp(-colnorm^2 (b-bhat)^2/(2 sigma^2) - lam|b|/sigma).

        C is defined so the integral equals sqrt(2 pi) (sigma/colnorm) C.
        """
        kappa = lam / colnorm
        u = colnorm * bhat / sigma
        t1 = 0.5 * kappa**2 - kappa * u + norm_logcdf(u - kappa)
        t2 = 0.5 * kappa**2 + kappa * u + norm_logcdf(-u - kappa)
        hi = max(t1, t2)
        return hi + math.log(math.exp(t1 - hi) + math.exp(t2 - hi))


# ---------------------------------------------------------------------------
# M6: Gaussian mixture, known component count


class GaussMixtureKnownK(ModelFamily):
    """K-component Gaussian mixture with conjugate priors.

    Priors: mu_j | v_j ~ N(xi, v_j / tau), v_j ~ InvGamma(omega/2, psi/2),
    weights ~ Dirichlet(1, ..., 1); lam = (xi, tau, psi), omega fixed.
    """

    id = "M6"

    def __init__(self, K: int, omega: float = 2.0):
        if K < 2:
            raise DomainError("need at least 2 components")
        if not omega > 0:
            raise DomainError("omega must be positive")
        self.K = int(K)
        self.omega = float(omega)

    def validate_hyperparam(self, lam, allow_boundary=False):
        xi, tau, psi = (float(v) for v in lam)
        if tau <= 0 or psi <= 0:
            raise DomainError("tau and psi must be positive")
        return xi, tau, psi

    def _params(self, theta) -> MixtureParams:
        if not isinstance(theta, MixtureParams):
            raise DomainError("M6 expects MixtureParams")
        if theta.k != self.K:
            raise DomainError("component count mismatch")
        return theta

    def log_likelihood(self, theta, data):
        t = self._params(theta)
        return float(np.sum(_mixture_logpdf(data.y, t.weights, t.means, t.variances)))

    def log_prior(self, theta, lam):
        xi, tau, psi = self.validate_hyperparam(lam)
        t = self._params(theta)
        val = log_gamma(self.K)  # Dirichlet(1,...,1) density on the simplex
        for j in range(self.K):
            val += float(norm_logpdf(t.means[j], xi, math.sqrt(t.variances[j] / tau)))
            val += _log_inv_gamma(t.variances[j], self.omega / 2.0, psi / 2.0)
        return float(val)

    def prior_gradient(self, theta, lam):
        # free coordinates: (w_1..w_{K-1}, mu_1..mu_K, v_1..v_K)
        xi, tau, psi = self.validate_hyperparam(lam)
        t = self._params(theta)
        gw = np.zeros(self.K - 1)  # uniform Dirichlet: flat on the simplex
        gm = -tau * (t.means - xi) / t.variances
        gv = (
            -0.5 / t.variances
            + tau * (t.means - xi) ** 2 / (2.0 * t.variances**2)
            - (self.omega / 2.0 + 1.0) / t.variances
            + psi / (2.0 * t.variances**2)
        )
        return np.concatenate([gw, gm, gv])

    def oracle_hyperparameter(self, theta0):
        t = self._params(theta0)
        if np.ptp(t.means) < 1e-12:
            raise DegenerateOracleError("oracle tau undefined when all means equal")
        inv_v = 1.0 / t.variances
        xi = float(np.sum(inv_v * t.means) / np.sum(inv_v))
        tau = self.K / float(np.sum((t.means - xi) ** 2 * inv_v))
        psi = self.K * self.omega / float(np.sum(inv_v))
        return (xi, tau, psi)

    def _score(self, y, t: MixtureParams):
        """Score of log f_theta(y) in the free coordinates, vectorized in y."""
        y = np.atleast_1d(np.asarray(y, float))
        w, mu, v = t.weights, t.means, t.variances
        phi = np.exp(
            -0.5 * np.log(2.0 * np.pi * v)[None, :]
            - 0.5 * (y[:, None] - mu[None, :]) ** 2 / v[None, :]
        )
        f = phi @ w
        dw = (phi[:, : self.K - 1] - phi[:, self.K - 1 :]) / f[:, None]
        dmu = w[None, :] * phi * (y[:, None] - mu[None, :]) / v[None, :] / f[:, None]
        dv = (
            w[None, :]
            * phi
            * ((y[:, None] - mu[None, :]) ** 2 / (2.0 * v[None, :] ** 2) - 0.5 / v[None, :])
            / f[:, None]
        )
        return np.concatenate([dw, dmu, dv], axis=1), f

    def fisher_information(self, theta0):
        # E[score score^t], dense trapezoid over a wide support interval
        t = self._params(theta0)
        sd = np.sqrt(t.variances)
        lo = float(np.min(t.means - 12.0 * sd))
        hi = float(np.max(t.means + 12.0 * sd))
        y = np.linspace(lo, hi, 20001)
        S, f = self._score(y, t)
        W = f * (y[1] - y[0])
        return (S.T * W) @ S

    def predictive_score_l1(self, theta0, w):
        t = self._params(theta0)
        sd = np.sqrt(t.variances)
        lo = float(np.min(t.means - 10.0 * sd))
        hi = float(np.max(t.means + 10.0 * sd))
        ys = np.linspace(lo, hi, 20001)
        S, fdens = self._score(ys, t)
        return float(np.trapezoid(np.abs(S @ w) * fdens, ys))

    def simulate(self, theta0, n, g, seed):
        return _simulate_mixture(theta0, n, g)

    def posterior(self, lam, data):
        from .posteriors import SamplePosterior
        from .samplers import GibbsConfig, gibbs_gauss_mixture

        return SamplePosterior(gibbs_gauss_mixture(data, self, lam, GibbsConfig()).draws)


# ---------------------------------------------------------------------------
# M7: overfitted Gaussian-location mixture


class OverfittedMixture(ModelFamily):
    """K-component Gaussian-location mixture with Dirichlet(lam, ..., lam) weights.

    Component variance is known; locations get independent N(loc_mean, loc_var)
    priors.  The oracle concentration sits on the boundary lam = 0 whenever the
    truth has fewer than K components.
    """

    id = "M7"

    def __init__(self, K: int, comp_var: float = 1.0,
                 loc_mean: float = 0.0, loc_var: float = 4.0):
        if K < 2:
            raise DomainError("need at least 2 components")
        if not (comp_var > 0 and loc_var > 0):
            raise DomainError("variances must be positive")
        self.K = int(K)
        self.comp_var = float(comp_var)
        self.loc_mean = float(loc_mean)
        self.loc_var = float(loc_var)

    def _params(self, theta) -> MixtureParams:
        if not isinstance(theta, MixtureParams):
            raise DomainError("M7 expects MixtureParams")
        if theta.k != self.K:
            raise DomainError("component count mismatch")
        if np.any(np.abs(theta.variances - self.comp_var) > 1e-12):
            raise DomainError("component variances are fixed for this family")
        return theta

    def log_likelihood(self, theta, data):
        t = self._params(theta)
        return float(np.sum(_mixture_logpdf(data.y, t.weights, t.means, t.variances)))

    def log_prior(self, theta, lam):
        lam = self.validate_hyperparam(lam)
        t = self._params(theta)
        val = _log_dirichlet(t.weights, np.full(self.K, lam))
        val += float(
            np.sum(norm_logpdf(t.means, self.loc_mean, math.sqrt(self.loc_var)))
        )
        return val

    def prior_gradient(self, theta, lam):
        # free coordinates: (w_1..w_{K-1}, gamma_1..gamma_K)
        lam = self.validate_hyperparam(lam)
        t = self._params(theta)
        w = t.weights
        if np.any(w <= 0):
            raise DomainError("gradient needs weights in the open simplex")
        gw = (lam - 1.0) * (1.0 / w[:-1] - 1.0 / w[-1])
        gm = -(t.means - self.loc_mean) / self.loc_var
        return np.concatenate([gw, gm])

    def oracle_hyperparameter(self, theta0):
        # boundary oracle for overfitted weights
        return 0.0

    def simulate(self, theta0, n, g, seed):
        return _simulate_mixture(theta0, n, g)

    def posterior(self, lam, data):
        from .posteriors import SamplePosterior
        from .samplers import GibbsConfig, gibbs_mixture_weights

        chain = gibbs_mixture_weights(data, self.validate_hyperparam(lam), self,
                                      GibbsConfig())
        return SamplePosterior(chain.draws[:, : self.K])


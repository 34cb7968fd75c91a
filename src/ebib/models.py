"""Registry of the seven model families.

Each family bundles the evaluators used elsewhere: log-likelihood,
hyperparameter-indexed log-prior and its gradient in the true parameter,
limiting Fisher information, closed-form oracle hyperparameter where one
exists, the posterior, and the family-specific bodies behind the generic
entry points: closed-form marginal, data simulation, exact KL to the
marginal, the predictive score moment and the plug-in hyperparameter.

Posteriors are deterministic, like marginals: ``posterior`` returns the exact
posterior (closed form, or a closed-form density on a grid) or raises
``CapabilityError``, and Monte Carlo draws come from ``ebib.samplers``.

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
from .marginal import markov_log_marginal
from .numerics import (log_gamma, log_ndtr, nelder_mead, norm_logpdf, norm_pdf,
                       rank_one_gaussian_logpdf)
from .posteriors import (
    GaussianPosterior,
    GridPosterior,
    NormalInverseGammaPosterior,
    PointMassPosterior,
)
from .samplers import uniform_design

_SIMPLEX_TOL = 1e-12


# ---------------------------------------------------------------------------
# data containers


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed data: response y, optional design X, optional transition counts.

    A 2-d y holds one dataset per row, for families with ``simulate_rows``.
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
            if not np.all(np.isfinite(c)) or np.any(c < 0) or np.any(c != np.floor(c)):
                raise DomainError("transition counts must be finite nonnegative integers")
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
    try:
        table = np.genfromtxt(path, delimiter=",", names=True)
    except ValueError as exc:  # a row with more or fewer cells than the header
        raise DomainError(f"dataset CSV is malformed: {exc}") from exc
    names = table.dtype.names
    if names is None or "y" not in names:
        raise DomainError("dataset CSV must have a header with a 'y' column")
    if table.size == 0:
        raise DomainError("dataset CSV has a header but no rows")
    xcols = sorted(
        (c for c in names if c.startswith("x") and c[1:].isdigit()),
        key=lambda c: int(c[1:]),
    )
    for c in ["y", *xcols]:
        if not np.all(np.isfinite(table[c])):
            raise DomainError(f"dataset CSV column '{c}' has an empty or non-finite cell")
    y = np.atleast_1d(table["y"])
    X = None
    if xcols:
        X = np.column_stack([np.atleast_1d(table[c]) for c in xcols])
    return Dataset(y=y, X=X)


def load_counts_csv(path) -> Dataset:
    """Read a square integer transition-count matrix from a headerless CSV."""
    try:
        counts = np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
    except ValueError as exc:  # ragged rows or a non-numeric cell
        raise DomainError(f"transition-count CSV is malformed: {exc}") from exc
    return Dataset(counts=counts)


# parameter points


def _finite_point(point):
    """``point``, a bare parameter point as a float or a float array, once
    every entry is finite; DomainError otherwise, NaN included."""
    if not (math.isfinite(point) if isinstance(point, float) else np.isfinite(point).all()):
        raise DomainError("parameter point entries must be finite")
    return point


@dataclass(frozen=True, eq=False)
class RegressionParams:
    beta: np.ndarray
    sigma2: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, float)))
        if not (np.all(np.isfinite(self.beta)) and 0 < self.sigma2 < math.inf):
            raise DomainError("beta must be finite and sigma2 positive and finite")


@dataclass(frozen=True, eq=False)
class GPriorParams:
    """g-prior regression parameter point, ordered (sigma, alpha, beta)."""

    sigma: float
    alpha: float
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, float)))
        if not (np.all(np.isfinite(self.beta)) and abs(self.alpha) < math.inf
                and 0 < self.sigma < math.inf):
            raise DomainError("alpha and beta must be finite and sigma positive and finite")


@dataclass(frozen=True, eq=False)
class MixtureParams:
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, float))
        m = np.atleast_1d(np.asarray(self.means, float))
        v = np.atleast_1d(np.asarray(self.variances, float))
        if not abs(w.sum() - 1.0) <= _SIMPLEX_TOL:
            raise DomainError("mixture weights must sum to 1")
        if not np.all(w >= 0):
            raise DomainError("mixture weights must be nonnegative")
        if not (np.all(np.isfinite(m)) and np.all((v > 0) & (v < math.inf))):
            raise DomainError("mixture means must be finite and variances positive and finite")
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


def _normal_loglik(r, s2):
    """Sum of the N(0, s2) log-densities of the residuals r over the last axis:
    a float for a 1-d r, one value per row of a 2-d r."""
    out = (-0.5 * r.shape[-1] * math.log(2.0 * math.pi * s2)
           - 0.5 * np.sum(r**2, axis=-1) / s2)
    return float(out) if r.ndim == 1 else out


def _simulate_regression(beta, s2, n, g, seed) -> Dataset:
    X = uniform_design(n, beta.size, seed)
    return Dataset(y=X @ beta + g.normal(0.0, math.sqrt(s2), size=n), X=X)


class ModelFamily:
    """Base class: the shared evaluator interface.

    Each family defines ``log_likelihood``, ``log_prior``, ``prior_gradient``
    and ``oracle_hyperparameter``.  A capability is the method itself: an
    optional evaluator either answers or raises ``CapabilityError``.
    """

    id = "base"

    def validate_hyperparam(self, lam, allow_boundary=False):
        """A finite scalar lam > 0, or 0 where ``allow_boundary``; families
        indexed by a vector or a matrix override this."""
        lam = float(lam)
        if not (0 < lam < math.inf or (lam == 0 and allow_boundary)):
            raise DomainError("lam must be positive and finite (0 only as boundary)")
        return lam

    def fisher_information(self, theta0) -> np.ndarray:
        raise CapabilityError(f"{self.id}: Fisher information not supported")

    def posterior(self, lam, data: Dataset):
        """The exact posterior object; draws come from the samplers."""
        raise CapabilityError(f"{self.id}: no closed-form posterior")

    def mle(self, data: Dataset):
        raise CapabilityError(f"{self.id}: closed-form MLE not available")

    def closed_form_mmle(self, data: Dataset) -> float:
        raise CapabilityError(f"{self.id}: no closed-form MMLE")

    def log_marginal(self, lam, data: Dataset) -> float:
        """Closed-form log m_lam(y)."""
        raise CapabilityError(f"{self.id}: no closed-form marginal")

    def simulate(self, theta0, n: int, g, seed) -> Dataset:
        """n >= 0 draws from p_theta0: noise from ``g``, any design from ``seed``."""
        raise CapabilityError(f"{self.id}: simulation not supported")

    def simulate_rows(self, theta0, gens, out):
        """Fill each row of the (rows, n) array ``out`` with n draws from
        p_theta0, row r from ``gens[r]``, and return ``out``.  A family with
        this method also takes one dataset per row of a 2-d y in
        ``log_likelihood`` and ``log_marginal``."""
        raise CapabilityError(f"{self.id}: row-wise simulation not supported")

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

    def __init__(self, sigma2: float = 1.0):
        if not sigma2 > 0:
            raise DomainError("sigma2 must be positive")
        self.sigma2 = float(sigma2)

    def log_likelihood(self, theta, data):
        # one value per row of a 2-d y, each equal to the 1-d call on it
        return _normal_loglik(np.subtract(data.y, _finite_point(float(theta)), order="C"), self.sigma2)

    def log_prior(self, theta, lam):
        lam = self.validate_hyperparam(lam)
        return float(norm_logpdf(_finite_point(float(theta)), 0.0, math.sqrt(lam)))

    def prior_gradient(self, theta, lam):
        lam = self.validate_hyperparam(lam)
        return np.array([-_finite_point(float(theta)) / lam])

    def oracle_hyperparameter(self, theta0):
        return _finite_point(float(theta0)) ** 2

    def fisher_information(self, theta0):
        return np.array([[1.0 / self.sigma2]])

    @staticmethod
    def _ybar(data):
        """The mean of y, which must be one dataset: a 2-d y, one dataset per
        row, is for ``log_likelihood`` and ``log_marginal`` only."""
        if data.y.ndim != 1:
            raise DomainError("the M1 MLE, MMLE and posterior need a 1-d y")
        return float(np.mean(data.y))

    def mle(self, data):
        return self._ybar(data)

    def closed_form_mmle(self, data: Dataset) -> float:
        """Stationary point of the exact marginal, truncated at 0."""
        return max(0.0, self._ybar(data)**2 - self.sigma2 / data.n)

    def posterior(self, lam, data):
        n = data.n
        ybar = self._ybar(data)
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
        # C order keeps each row's sum and dot product in the 1-d reduction order
        y = np.ascontiguousarray(data.y)
        yy = (y[..., None, :] @ y[..., :, None])[..., 0, 0]
        out = rank_one_gaussian_logpdf(y.shape[-1], np.sum(y, axis=-1), yy, self.sigma2, lam)
        return float(out) if y.ndim == 1 else out

    def simulate(self, theta0, n, g, seed):
        return Dataset(y=self.simulate_rows(theta0, [g], np.empty((1, n)))[0])

    def simulate_rows(self, theta0, gens, out):
        # g.normal(theta0, sigma, n) draw for draw: theta0 + sigma * z
        for row, g in zip(out, gens):
            g.standard_normal(out=row)
        out *= math.sqrt(self.sigma2)
        out += _finite_point(float(theta0))
        return out

    def kl_exact(self, theta0, lam, n, data=None):
        lam = self.validate_hyperparam(lam, allow_boundary=True)
        if n < 0:
            raise DomainError("n must be >= 0")
        s2 = self.sigma2
        t = _finite_point(float(theta0))
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
        if not (np.all((tau2 >= 0) & (tau2 < math.inf))
                and (allow_boundary or np.all(tau2 > 0))):
            raise DomainError("tau2 entries must be positive and finite (0 only as boundary)")
        return tau2

    def _beta(self, theta):
        if isinstance(theta, RegressionParams):
            return theta.beta
        return _finite_point(np.atleast_1d(np.asarray(theta, float)))

    def log_likelihood(self, theta, data):
        return _normal_loglik(data.y - data.X @ self._beta(theta), self.sigma2)

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

    def _active_set(self, lam, X, v):
        """The fit of the response v over the columns a with tau2_a > 0, where
        tau2 = lam has one entry per column of X.  With D = diag(tau2_a),
        G = X_a^t X_a, M = G + s2 D^-1 and b = X_a^t v: the columns a, M^-1 b,
        M^-1, (v^t v - b^t M^-1 b) / s2, log det(I + G D / s2) and G.  For
        v = y, M^-1 b and s2 M^-1 are the posterior mean and covariance of beta_a;
        with no active column every matrix is 0 x 0."""
        tau2 = self.validate_hyperparam(lam, allow_boundary=True)
        if tau2.size != X.shape[1]:
            raise DomainError("tau2 length must match design columns")
        s2 = self.sigma2
        active = np.flatnonzero(tau2 > 0)
        Xa, Da = X[:, active], tau2[active]
        G = Xa.T @ Xa
        Minv = np.linalg.inv(G + s2 * np.diag(1.0 / Da))
        b = Xa.T @ v
        mean = Minv @ b
        quad = (float(v @ v) - float(b @ mean)) / s2
        sign, logdet = np.linalg.slogdet(np.eye(active.size) + (G * Da[None, :]) / s2)
        if sign <= 0:
            raise DomainError("marginal covariance not positive definite")
        return active, mean, Minv, quad, logdet, G

    def posterior(self, lam, data):
        active, mean, Minv, *_ = self._active_set(lam, data.X, data.y)
        marginals = [PointMassPosterior(0.0)] * data.X.shape[1]
        for k, j in enumerate(active):
            marginals[j] = GaussianPosterior(mean[k], self.sigma2 * Minv[k, k])
        return tuple(marginals)

    def log_marginal(self, lam, data):
        *_, quad, logdet, _ = self._active_set(lam, data.X, data.y)
        n, s2 = data.n, self.sigma2
        return -0.5 * (n * math.log(2.0 * math.pi) + (n * math.log(s2) + logdet) + quad)

    def simulate(self, theta0, n, g, seed):
        return _simulate_regression(self._beta(theta0), self.sigma2, n, g, seed)

    def kl_exact(self, theta0, lam, n, data=None):
        """KL(N(X beta0, s2 I) || N(0, s2 I + X D X^t)) via d-dimensional identities.

        The design is fixed, so ``data`` must carry ``X`` and ``n`` is its row count.
        """
        X = None if data is None else data.X
        if X is None or n != X.shape[0]:
            raise DomainError("M2 exact KL needs the design in data.X, with n its row count")
        _, _, Minv, quad, logdet, G = self._active_set(lam, X, X @ self._beta(theta0))
        return 0.5 * (-float(np.sum(Minv * G)) + quad + logdet)


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
        return _normal_loglik(data.y - theta.alpha - data.X @ theta.beta, theta.sigma**2)

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
        _, sse, beta = self.suff_stats(data)
        return GPriorParams(sigma=math.sqrt(sse / data.n), alpha=float(np.mean(data.y)),
                            beta=beta)

    @staticmethod
    def suff_stats(data: Dataset):
        """(SSR, SSE, beta_hat) for the centered-design decomposition, which
        needs n > d + 1 rows: at least one residual degree of freedom."""
        X, y = data.X, data.y
        if data.n <= X.shape[1] + 1:
            raise InsufficientDataError("the g-prior fit needs n > d + 1 rows")
        GPriorRegression._check_centered(X)
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        yc = y - np.mean(y)
        ssr = float(beta @ X.T @ X @ beta)
        sse = float(np.sum((yc - X @ beta) ** 2))
        return ssr, sse, beta

    def closed_form_mmle(self, data: Dataset) -> float:
        """Truncated F-ratio form of the marginal-likelihood maximizer."""
        ssr, sse, _ = self.suff_stats(data)
        n, p = data.n, data.X.shape[1]
        return max((ssr / p) / (sse / (n - p - 1.0)) - 1.0, 0.0) / n

    def posterior(self, lam, data):
        lam = self.validate_hyperparam(lam)
        ssr, sse, beta_hat = self.suff_stats(data)
        X, y, n = data.X, data.y, data.n
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
        ssr, sse, _ = self.suff_stats(data)
        n, p = data.n, data.X.shape[1]
        q = sse + ssr / (1.0 + n * lam)
        return (
            -0.5 * math.log(n)
            - 0.5 * (n - 1.0) * math.log(2.0 * math.pi)
            + log_gamma((n - 1.0) / 2.0)
            - 0.5 * p * math.log(1.0 + n * lam)
            - 0.5 * (n - 1.0) * math.log(q / 2.0)
        )

    def simulate(self, theta0, n, g, seed):
        X = uniform_design(n, theta0.beta.size, seed)
        if n:
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
        if not (np.all((alpha >= 0) & (alpha < math.inf))
                and (allow_boundary or np.all(alpha > 0))):
            raise DomainError("alpha entries must be positive and finite (0 only as boundary)")
        return alpha

    @staticmethod
    def _rows(theta):
        P = np.atleast_2d(np.asarray(theta, float))
        if not (np.all(np.abs(P.sum(axis=1) - 1.0) <= _SIMPLEX_TOL) and np.all(P >= 0)):
            raise DomainError("transition rows must lie on the simplex")
        return P

    def transition_counts(self, data):
        """The transition counts of data, which must be K x K."""
        if data.counts is None or data.counts.shape != (self.K, self.K):
            raise DomainError("M4 needs K x K transition counts")
        return data.counts

    def log_likelihood(self, theta, data):
        # combinatorial constant fixed to 0: likelihood up to proportionality
        P = self._rows(theta)
        counts = self.transition_counts(data)
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

    def oracle_hyperparameter(self, theta0):
        """Row-wise box-constrained maximization of the Dirichlet log-density.

        The literal supremum over all concentrations is unattained (the density
        at an interior point grows without bound along the ray through the row),
        so the search is over the compact box ``BOX`` per coordinate.
        """
        P = self._rows(theta0)
        lo, hi = self.BOX
        out = np.empty((self.K, self.K))
        for i in range(self.K):
            out[i] = _maximize_dirichlet_row(P[i], lo, hi, row=i)
        return out

    def posterior(self, lam, data):
        alpha = self.validate_hyperparam(lam)
        return DirichletRowsPosterior(alpha=alpha + self.transition_counts(data))

    def log_marginal(self, lam, data):
        return markov_log_marginal(self.transition_counts(data), self.validate_hyperparam(lam))

    def simulate(self, theta0, n, g, seed):
        # g.choice(K, p=P[state]) step by step, draw for draw: each step
        # searches one uniform in the row's normalised cdf
        P = self._rows(theta0)
        K = P.shape[0]
        state = int(g.integers(K))
        u = g.random(n)
        nxt = []
        for p in P:
            cdf = p.cumsum()
            cdf /= cdf[-1]
            nxt.append(cdf.searchsorted(u, side="right").tolist())
        path = [state]
        for t in range(n):
            state = nxt[state][t]
            path.append(state)
        path = np.array(path, dtype=np.int64)
        counts = np.bincount(path[:-1] * K + path[1:], minlength=K * K).reshape(K, K)
        return Dataset(y=path.astype(float), counts=counts)


def box_argmin(neg, lo, hi, g, maxiter, xatol):
    """Bounded Nelder-Mead (`numerics.nelder_mead`) minimizer
    of ``neg`` over the box [lo, hi], from all ones and four ``g``-uniform
    starts on [lo, min(hi, 10)].

    Returns the result of the strictly best start, the total iterations and
    whether every start converged.
    """
    starts = [np.ones(lo.size)] + [g.uniform(lo, np.minimum(hi, 10.0))
                                   for _ in range(4)]
    best, iters, converged = None, 0, True
    for x0 in starts:
        x, fun, nit, ok = nelder_mead(neg, x0, lo, hi, maxiter, xatol)
        iters += nit
        converged = converged and ok
        if best is None or fun < best[0]:
            best = (fun, x)
    return best[1], iters, converged


def _maximize_dirichlet_row(p, lo, hi, row):
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

    g = rngmod.stream(0, "dirichlet-row-oracle", row)
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

    def _unpack(self, theta):
        if isinstance(theta, RegressionParams):
            s2 = self.sigma2 if self.sigma_known else theta.sigma2
            return theta.beta, s2
        if not self.sigma_known:
            raise DomainError("unknown-sigma variant needs RegressionParams")
        return _finite_point(np.atleast_1d(np.asarray(theta, float))), self.sigma2

    def log_likelihood(self, theta, data):
        beta, s2 = self._unpack(theta)
        return _normal_loglik(data.y - data.X @ beta, s2)

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

    def _column_norms(self, X):
        """The column norms of X, for the closed forms, which need a known
        sigma2 and orthogonal design columns."""
        if not self.sigma_known:
            raise CapabilityError("closed-form M5 path requires known sigma2")
        G = X.T @ X
        off = G - np.diag(np.diag(G))
        if np.max(np.abs(off)) > 1e-8 * np.max(np.diag(G)):
            raise CapabilityError("closed-form M5 path requires orthogonal design columns")
        return np.sqrt(np.diag(G))

    def coordinate_posterior(self, lam, data, j: int):
        """Closed-form marginal posterior of beta_j (orthogonal X, known sigma),
        tabulated at 2,001 points."""
        lam = self.validate_hyperparam(lam)
        norms = self._column_norms(data.X)
        s = math.sqrt(self.sigma2)
        sj = norms[j]
        bj = float(data.X[:, j] @ data.y) / sj**2
        sd = s / sj
        x = np.linspace(bj - 10.0 * sd - 2.0 * lam * sd**2 / s, bj + 10.0 * sd + 2.0 * lam * sd**2 / s, 2001)
        logd = -0.5 * (x - bj) ** 2 / sd**2 - lam * np.abs(x) / s
        logd -= logd.max()
        return GridPosterior(x, np.exp(logd))

    def posterior(self, lam, data):
        # CapabilityError where sigma2 is unknown or the design not orthogonal
        return tuple(self.coordinate_posterior(lam, data, j) for j in range(data.X.shape[1]))

    def log_marginal(self, lam, data):
        lam = self.validate_hyperparam(lam)
        norms = self._column_norms(data.X)
        s = math.sqrt(self.sigma2)
        X, y, n = data.X, data.y, data.n
        bhat = (X.T @ y) / norms**2
        sse = float(np.sum((y - X @ bhat) ** 2))
        out = -0.5 * n * math.log(2.0 * math.pi * s * s) - sse / (2.0 * s * s)
        # per coordinate j, log C(lam): the normalizer of
        # exp(-sj^2 (b - bj)^2 / (2 s^2) - lam |b| / s), so that the integral
        # is sqrt(2 pi) (s / sj) C; kappa^2, exp and log stay float operations,
        # whose last bit numpy's array forms need not share
        for sj, bj in zip(norms.tolist(), bhat.tolist()):
            kappa, u = lam / sj, sj * bj / s
            out += 0.5 * math.log(2.0 * math.pi) + math.log(s / sj)
            out += math.log(lam / (2.0 * s))
            t1 = 0.5 * kappa**2 - kappa * u + log_ndtr(u - kappa)
            t2 = 0.5 * kappa**2 + kappa * u + log_ndtr(-u - kappa)
            hi = max(t1, t2)
            out += hi + math.log(math.exp(t1 - hi) + math.exp(t2 - hi))
        return float(out)

    def simulate(self, theta0, n, g, seed):
        return _simulate_regression(*self._unpack(theta0), n, g, seed)


# ---------------------------------------------------------------------------
# M6, M7: Gaussian mixtures


class _GaussianMixture(ModelFamily):
    """The parameter check, likelihood and simulation shared by M6 and M7."""

    def _params(self, theta) -> MixtureParams:
        if not isinstance(theta, MixtureParams):
            raise DomainError(f"{self.id} expects MixtureParams")
        if theta.k != self.K:
            raise DomainError("component count mismatch")
        return theta

    def log_likelihood(self, theta, data):
        t = self._params(theta)
        w = t.weights
        lw = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)
        # log N(y_i; mu_j, v_j) + log w_j, point i by row and component j by column
        m = norm_logpdf(np.atleast_1d(data.y)[:, None], t.means, np.sqrt(t.variances)) + lw
        mx = m.max(axis=1, keepdims=True)
        return float(np.sum(mx[:, 0] + np.log(np.sum(np.exp(m - mx), axis=1))))

    def simulate(self, theta0, n, g, seed):
        t = self._params(theta0)
        z = g.choice(t.k, size=n, p=t.weights)
        return Dataset(y=t.means[z] + g.normal(size=n) * np.sqrt(t.variances[z]))


class GaussMixtureKnownK(_GaussianMixture):
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
        if not (abs(xi) < math.inf and 0 < tau < math.inf and 0 < psi < math.inf):
            raise DomainError("xi must be finite, and tau and psi positive and finite")
        return xi, tau, psi

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
        phi = norm_pdf(y[:, None], mu, np.sqrt(v))
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

    def _score_grid(self, theta0, width: float):
        """20,001 points y spanning every component's mean +- width sd, with the
        score and the density of p_theta0 at each."""
        t = self._params(theta0)
        sd = np.sqrt(t.variances)
        y = np.linspace(float(np.min(t.means - width * sd)),
                        float(np.max(t.means + width * sd)), 20001)
        return (y, *self._score(y, t))

    def fisher_information(self, theta0):
        # E[score score^t], dense trapezoid over a wide support interval
        y, S, f = self._score_grid(theta0, 12.0)
        W = f * (y[1] - y[0])
        return (S.T * W) @ S

    def predictive_score_l1(self, theta0, w):
        y, S, f = self._score_grid(theta0, 10.0)
        return float(np.trapezoid(np.abs(S @ w) * f, y))


# ---------------------------------------------------------------------------
# M7: overfitted Gaussian-location mixture


class OverfittedMixture(_GaussianMixture):
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
        t = super()._params(theta)
        if np.any(np.abs(t.variances - self.comp_var) > 1e-12):
            raise DomainError("component variances are fixed for this family")
        return t

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

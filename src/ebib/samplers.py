"""Synthetic data generation and MCMC samplers.

All stochastic routines draw from hierarchical streams (see module rng), so a
(seed, role) pair fully determines the output.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import rng as rngmod
from .errors import DomainError, SamplerError

if TYPE_CHECKING:
    from .models import Dataset


@dataclass(frozen=True)
class GibbsConfig:
    iters: int
    burnin: int
    seed: int

    def __post_init__(self):
        if not self.iters > self.burnin >= 0:
            raise DomainError("need iters > burnin >= 0")


@dataclass(frozen=True, eq=False)
class ChainOutput:
    draws: np.ndarray  # rows = retained iterations
    names: tuple

    def to_csv(self, path):
        header = ",".join(self.names)
        np.savetxt(path, self.draws, delimiter=",", header=header, comments="")


def effective_sample_size(x) -> float:
    """ESS via the initial-positive-sequence truncation of the autocorrelations."""
    x = np.asarray(x, dtype=float)
    n = x.size
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0:
        return float(n)
    # FFT autocovariances
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n].real / n
    rho = acov / var
    s = 0.0
    k = 1
    while k + 1 < n:
        pair = rho[k] + rho[k + 1]
        if pair <= 0:
            break
        s += pair
        k += 2
    return float(n / (1.0 + 2.0 * s))


def _chain(draws, names) -> ChainOutput:
    draws = np.asarray(draws, dtype=float)
    if not np.all(np.isfinite(draws)):
        bad = int(np.argwhere(~np.isfinite(draws))[0][0])
        raise SamplerError("non-finite draw in chain", iteration=bad)
    return ChainOutput(draws=draws, names=tuple(names))


# ---------------------------------------------------------------------------
# data simulation


def uniform_design(n: int, d: int, seed):
    """n x d design with entries uniform on [-10, 10]."""
    return rngmod.stream(seed, "design").uniform(-10.0, 10.0, size=(n, d))


def orthogonal_design(n: int, d: int, seed, scale: float = 1.0):
    """Design with exactly orthogonal columns, each of squared norm n*scale^2."""
    if d > n:
        raise DomainError("need n >= d for an orthogonal design")
    g = rngmod.stream(seed, "design")
    Q, _ = np.linalg.qr(g.normal(size=(n, d)))
    return Q * (scale * math.sqrt(n))


def simulate(family, theta0, n: int, seed) -> Dataset:
    """Synthetic dataset from p_theta0 for any of the seven families."""
    return family.simulate(theta0, n, rngmod.stream(seed, "data"), seed)


# ---------------------------------------------------------------------------
# Bayesian LASSO Gibbs (scale mixture of normals)


def _flapack_routines():
    """scipy's LAPACK wrappers ``dpotrf``, ``dpotrs`` and ``dtrtrs``.

    They live in the extension module ``scipy.linalg._flapack``.  Importing
    them by name would first run the ``__init__`` of ``scipy.linalg``, which
    loads about 300 further modules, so the extension is loaded from its file
    instead and registered under its own name: a later ``import scipy.linalg``
    reuses it, and ``scipy.linalg.lapack.dpotrf`` is the very same object.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        scipy_dir = os.path.dirname(importlib.util.find_spec("scipy").origin)
        spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(scipy_dir, "linalg")])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.dpotrf, module.dpotrs, module.dtrtrs


def gibbs_lasso(data: Dataset, lam: float, sigma2: float | None,
                cfg: GibbsConfig) -> ChainOutput:
    """Gibbs sampler for the Laplace-prior regression.

    Draws (beta, tau2) with sigma2 fixed when given, else also sigma2 under the
    improper 1/sigma2 prior.  The Laplace prior is represented as a scale
    mixture: beta_j | tau_j2, sigma2 ~ N(0, sigma2 tau_j2) with
    tau_j2 ~ Exp(lam^2 / 2).
    """
    if not 0 < lam < math.inf:
        raise DomainError("lam must be positive and finite")
    sample_sigma = sigma2 is None
    if not (sample_sigma or 0 < sigma2 < math.inf):
        raise DomainError("sigma2 must be positive and finite")
    X, y = data.X, data.y
    n, d = X.shape
    if d >= n:
        raise DomainError("need d < n")
    dpotrf, dpotrs, dtrtrs = _flapack_routines()
    g = rngmod.stream(cfg.seed, "gibbs-lasso")

    XtX = X.T @ X
    Xty = X.T @ y
    beta = np.linalg.solve(XtX + 1e-8 * np.eye(d), Xty)
    # near-null OLS coordinates start with a small but nonzero prior scale
    tau2 = np.maximum(beta**2, 1e-6)
    s2 = sigma2 if not sample_sigma else max(float(np.sum((y - X @ beta) ** 2)) / n, 1e-8)

    ncol = 2 * d + (1 if sample_sigma else 0)
    out = np.empty((cfg.iters - cfg.burnin, ncol))
    names = [f"beta{j + 1}" for j in range(d)] + [f"tau2_{j + 1}" for j in range(d)]
    if sample_sigma:
        names.append("sigma2")

    # A = XtX + diag(1/tau2), rebuilt in place; LAPACK factors Fortran order uncopied
    A = np.empty((d, d), order="F")
    diag = A.ravel(order="F")[:: d + 1]
    for it in range(cfg.iters):
        np.copyto(A, XtX)
        diag += 1.0 / tau2
        chol, info = dpotrf(A, lower=1, clean=0, overwrite_a=1)
        if info:
            raise SamplerError("precision matrix not positive definite", iteration=it)
        mean = dpotrs(chol, Xty, lower=1)[0]
        z = g.normal(size=d)
        beta = mean + math.sqrt(s2) * dtrtrs(chol, z, lower=1, trans=1)[0]

        absb = np.maximum(np.abs(beta), 1e-12)
        inv_tau2 = g.wald(lam * math.sqrt(s2) / absb, lam**2)
        tau2 = 1.0 / np.maximum(inv_tau2, 1e-300)

        if sample_sigma:
            rss = float(np.sum((y - X @ beta) ** 2))
            shape = (n - 1.0 + d) / 2.0
            scale = (rss + float(beta @ (beta / tau2))) / 2.0
            s2 = scale / g.gamma(shape)

        if it >= cfg.burnin:
            row = out[it - cfg.burnin]
            row[:d], row[d : 2 * d] = beta, tau2
            if sample_sigma:
                row[2 * d] = s2
    return _chain(out, names)


# ---------------------------------------------------------------------------
# mixture samplers
#
# A sweep is a few dozen numpy calls on arrays of K or n elements, so per-call
# overhead, not arithmetic, sets its cost.  The helpers reach numpy's own
# draws and sums, bit for bit, with fewer and cheaper calls.


def _dirichlet(g, alpha):
    """``g.dirichlet(alpha)`` draw for draw, leaving the stream in the same state.

    Numpy draws one standard gamma per shape, in order, and scales them by the
    reciprocal of their running sum; scalar calls skip its array checks.  When
    every shape is below 0.1 numpy breaks sticks with beta draws instead, so
    that case stays with numpy.
    """
    if max(alpha) < 0.1:
        return g.dirichlet(alpha)
    draws = [g.standard_gamma(a) for a in alpha]
    acc = 0.0
    for v in draws:  # numpy's order; the builtin sum compensates from Python 3.12
        acc += v
    return np.array(draws) * (1.0 / acc)


def _allocate(logp, g):
    """Allocations z and counts from unnormalised log probabilities ``logp``.

    ``logp`` is components-major, shape (K, n), and is overwritten.  The
    reductions over components run row by row, in the sequential order of
    numpy's axis-0 ``max``, ``sum`` and ``cumsum``, so the draws are theirs.
    (At n = 1 numpy sums 8 or more components pairwise, so there the last bit
    of a probability may differ.)
    """
    K, n = logp.shape
    top = logp[0]
    for j in range(1, K):
        top = np.maximum(top, logp[j])
    logp -= top
    np.exp(logp, out=logp)
    tot = logp[0]
    for j in range(1, K):
        tot = tot + logp[j]
    u = g.random(n)
    # row j becomes the running sum of the probabilities of components 0..j,
    # and z counts the sums below u; the last sum is the total, 1 up to
    # rounding, so it is neither formed nor compared, and z < K
    z = np.zeros(n, np.intp)
    for j in range(K - 1):
        r = logp[j]
        r /= tot
        if j:
            r += logp[j - 1]
        z += r < u
    return z, np.bincount(z, minlength=K)


def gibbs_mixture_weights(data: Dataset, lam_ref: float, family,
                          cfg: GibbsConfig) -> ChainOutput:
    """Allocation-weight Gibbs for the Gaussian-location mixture.

    ``family`` (an OverfittedMixture) supplies the component count K, the
    fixed component variance and the Normal prior on the locations.  Retained
    draws are the weight vectors p plus the allocation counts c, which feed
    the marginal-likelihood reweighting profile (the counts give bounded
    importance ratios, unlike the raw weights whose ratios have infinite
    variance near the simplex edge).
    """
    family.validate_hyperparam(lam_ref)
    y = data.y
    g = rngmod.stream(cfg.seed, "gibbs-mix-weights")
    K, comp_var = family.K, family.comp_var
    m0, s02 = family.loc_mean, family.loc_var
    prior_prec, prior_shift = 1.0 / s02, m0 / s02

    w = np.full(K, 1.0 / K)
    gamma = g.normal(m0, math.sqrt(s02), size=K)
    gamma_col = gamma[:, None]
    logp = np.empty((K, y.size))

    out = np.empty((cfg.iters - cfg.burnin, 2 * K))
    for it in range(cfg.iters):
        # log w_j - (y_i - gamma_j)^2 / (2 comp_var), in the buffer
        np.subtract(y, gamma_col, out=logp)
        np.square(logp, out=logp)
        logp *= 0.5
        logp /= comp_var
        np.subtract(np.log(np.maximum(w, 1e-300))[:, None], logp, out=logp)
        z, counts = _allocate(logp, g)
        nj = counts.tolist()
        w = _dirichlet(g, [lam_ref + c for c in nj])
        sums = np.bincount(z, weights=y, minlength=K).tolist()
        for j in range(K):
            prec = nj[j] / comp_var + prior_prec
            gamma[j] = g.normal((sums[j] / comp_var + prior_shift) / prec,
                                math.sqrt(1.0 / prec))
        if it >= cfg.burnin:
            row = out[it - cfg.burnin]
            row[:K], row[K:] = w, counts
    names = [f"p{j + 1}" for j in range(K)] + [f"c{j + 1}" for j in range(K)]
    return _chain(out, names)


def gibbs_gauss_mixture(data: Dataset, family, lam, cfg: GibbsConfig) -> ChainOutput:
    """Conjugate Gibbs for the known-K Gaussian mixture (a GaussMixtureKnownK
    ``family``) at the hyperparameter lam = (xi, tau, psi).

    Draw columns: (w_1..w_K, mu_1..mu_K, v_1..v_K).
    """
    xi, tau, psi = family.validate_hyperparam(lam)
    K, omega = family.K, family.omega
    y = data.y
    n = y.size
    g = rngmod.stream(cfg.seed, "gibbs-mix-full")
    w = np.full(K, 1.0 / K)
    mu = np.quantile(y, (np.arange(K) + 0.5) / K) if n else np.zeros(K)
    v = np.full(K, max(float(np.var(y)), 1e-3) if n else 1.0)
    logp = np.empty((K, n))

    out = np.empty((cfg.iters - cfg.burnin, 3 * K))
    for it in range(cfg.iters):
        # log w_j - log(v_j) / 2 - (y_i - mu_j)^2 / (2 v_j), in the buffer
        np.subtract(y, mu[:, None], out=logp)
        np.square(logp, out=logp)
        logp *= 0.5
        logp /= v[:, None]
        np.subtract(np.log(np.maximum(w, 1e-300))[:, None] - 0.5 * np.log(v)[:, None],
                    logp, out=logp)
        z, counts = _allocate(logp, g)
        w = _dirichlet(g, (1.0 + counts).tolist())
        for j in range(K):
            nj = counts[j]
            yj = y[z == j]  # pairwise sum, unlike bincount's, keeps mu bit-identical
            mean_j = (yj.sum() + tau * xi) / (nj + tau)
            mu[j] = g.normal(mean_j, math.sqrt(v[j] / (nj + tau)))
            shape = (omega + nj + 1.0) / 2.0
            scale = (psi + float(np.sum((yj - mu[j]) ** 2)) + tau * (mu[j] - xi) ** 2) / 2.0
            v[j] = scale / g.gamma(shape)
        if it >= cfg.burnin:
            row = out[it - cfg.burnin]
            row[:K], row[K : 2 * K], row[2 * K :] = w, mu, v
    names = (
        [f"w{j + 1}" for j in range(K)]
        + [f"mu{j + 1}" for j in range(K)]
        + [f"v{j + 1}" for j in range(K)]
    )
    return _chain(out, names)

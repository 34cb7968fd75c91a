"""The Gibbs samplers checked by the distributions they draw, not by digests.

Joint-distribution checks (Geweke 2004, JASA, "Getting it right"; the
data-averaged posterior of Talts et al. 2018, arXiv:1804.06788): draw theta_m
from the sampler's proper prior, y_m from p(y | theta_m), and run one whole
chain on y_m.  Averaged over the data, the posterior is the prior, so for any
f the chain mean of f(theta) minus f(theta_m) has expectation 0.  Each
replicate m gives one such difference for every first and second moment of
the coordinates; the replicates are independent, so each moment's mean
difference over them, divided by its standard error, is a z-score.  The
threshold is fixed in advance: a family-wise level ALPHA per sampler, split
over its moments by Bonferroni.  Mixture components are exchangeable under
the prior, so their coordinates are read in a label-free order (by weight or
by location) on both sides.

The unknown-sigma2 LASSO has an improper prior, so it is checked instead
against a (beta, log sigma2) quadrature of its stated posterior at d = 1.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest

from ebib.models import Dataset, GaussMixtureKnownK, OverfittedMixture
from ebib.samplers import (
    GibbsConfig,
    effective_sample_size,
    gibbs_gauss_mixture,
    gibbs_lasso,
    gibbs_mixture_weights,
)

ALPHA = 1e-3  # family-wise level of each check
REPLICATES = 250
CHAIN = dict(iters=150, burnin=50)


def _z_threshold(tests: int) -> float:
    """Two-sided Bonferroni threshold for ``tests`` z-scores at level ALPHA."""
    return NormalDist().inv_cdf(1.0 - ALPHA / (2 * tests))


def _moments(u):
    """First and second moments of each column of ``u`` (draws x coordinates)."""
    u = np.atleast_2d(u)
    return np.concatenate([u, u**2], axis=1)


def _joint_check(draw_prior, run_chain, seed):
    """Largest |z| of the chains' moments against the prior draws', and the
    threshold it must stay within."""
    g = np.random.default_rng(seed)
    diffs = []
    for m in range(REPLICATES):
        truth, data = draw_prior(g)
        draws = run_chain(data, GibbsConfig(**CHAIN, seed=m))
        diffs.append(_moments(draws).mean(axis=0) - _moments(truth)[0])
    diffs = np.asarray(diffs)
    z = diffs.mean(axis=0) / (diffs.std(axis=0, ddof=1) / math.sqrt(REPLICATES))
    return float(np.max(np.abs(z))), _z_threshold(diffs.shape[1])


def test_gibbs_lasso_fixed_sigma2_reproduces_its_prior():
    # tau2_j ~ Exp(lam**2 / 2), beta_j | tau2 ~ N(0, sigma2 tau2_j), at d = 3;
    # draws are (beta, tau2), 12 moments
    n, d, lam, sigma2 = 4, 3, 1.5, 2.0
    X = np.random.default_rng(101).normal(size=(n, d))

    def draw_prior(g):
        tau2 = g.exponential(2.0 / lam**2, size=d)
        beta = g.normal(0.0, np.sqrt(sigma2 * tau2))
        y = X @ beta + g.normal(0.0, math.sqrt(sigma2), size=n)
        return np.concatenate([beta, tau2]), Dataset(y=y, X=X)

    z, limit = _joint_check(
        draw_prior, lambda data, cfg: gibbs_lasso(data, lam, sigma2, cfg).draws, 102)
    assert z <= limit


def _by_weight(w, c):
    """The heaviest component's weight and count, per row: a label-free
    coordinate pair at K = 2."""
    top = np.argmax(w, axis=1)[:, None]
    return np.concatenate([np.take_along_axis(w, top, 1), np.take_along_axis(c, top, 1)], 1)


def test_gibbs_mixture_weights_reproduces_its_prior():
    # p ~ Dirichlet(lam_ref, lam_ref), gamma_j ~ N(loc_mean, loc_var), z_i ~ p,
    # y_i ~ N(gamma_z, comp_var); draws are (p, allocation counts), read as the
    # heavier component's weight and count, 4 moments
    n, lam_ref = 10, 1.0
    fam = OverfittedMixture(K=2, comp_var=1.0, loc_mean=0.5, loc_var=4.0)

    def draw_prior(g):
        w = g.dirichlet([lam_ref, lam_ref])
        gamma = g.normal(fam.loc_mean, math.sqrt(fam.loc_var), size=2)
        z = (g.random(n) >= w[0]).astype(int)
        y = g.normal(gamma[z], math.sqrt(fam.comp_var))
        return _by_weight(w[None], np.bincount(z, minlength=2)[None]), Dataset(y=y)

    def run_chain(data, cfg):
        draws = gibbs_mixture_weights(data, lam_ref, fam, cfg).draws
        return _by_weight(draws[:, :2], draws[:, 2:])

    z, limit = _joint_check(draw_prior, run_chain, 202)
    assert z <= limit


def test_gibbs_gauss_mixture_reproduces_its_prior():
    # w ~ Dirichlet(1, 1), v_j ~ InvGamma(omega/2, psi/2), mu_j | v_j ~
    # N(xi, v_j / tau); draws are (w, mu, v), read in the order of mu as
    # (w_1, mu_1, mu_2, v_1, v_2), 10 moments.  omega = 10 gives v_j a finite
    # fourth moment, so the second moments have a finite variance.
    n, (xi, tau, psi) = 6, (0.5, 0.5, 10.0)
    fam = GaussMixtureKnownK(K=2, omega=10.0)

    def by_location(w, mu, v):
        order = np.argsort(mu, axis=1)
        w, mu, v = (np.take_along_axis(a, order, 1) for a in (w, mu, v))
        return np.concatenate([w[:, :1], mu, v], 1)

    def draw_prior(g):
        w = g.dirichlet([1.0, 1.0])
        v = psi / 2.0 / g.gamma(fam.omega / 2.0, size=2)
        mu = g.normal(xi, np.sqrt(v / tau))
        z = (g.random(n) >= w[0]).astype(int)
        y = g.normal(mu[z], np.sqrt(v[z]))
        return by_location(w[None], mu[None], v[None]), Dataset(y=y)

    def run_chain(data, cfg):
        draws = gibbs_gauss_mixture(data, fam, (xi, tau, psi), cfg).draws
        return by_location(draws[:, :2], draws[:, 2:4], draws[:, 4:])

    z, limit = _joint_check(draw_prior, run_chain, 302)
    assert z <= limit


def _lasso_sigma2_posterior_mean(x, y, lam):
    """E[sigma2 | y] for d = 1 under the stated model: y ~ N(x beta, sigma2),
    beta | sigma2 Laplace with rate lam / sigma, prior 1/sigma2, by the
    trapezoid rule on a (beta, u = log sigma2) grid."""
    n = y.size
    bhat = float(x @ y / (x @ x))
    s2 = float(np.sum((y - x * bhat) ** 2)) / n
    half = 12.0 * math.sqrt(s2 / (x @ x))
    beta = np.linspace(bhat - half, bhat + half, 801)
    u = np.linspace(math.log(s2) - 6.0, math.log(s2) + 6.0, 801)
    rss = np.sum((y[:, None] - x[:, None] * beta[None, :]) ** 2, axis=0)
    b, uu = np.meshgrid(beta, u)
    # log p(beta, u) up to a constant: the likelihood, and the Laplace density
    # with its factor 1/sigma; the 1/sigma2 prior cancels the Jacobian sigma2
    # of u = log sigma2
    logp = (-0.5 * n * uu - rss[None, :] / (2.0 * np.exp(uu))
            - 0.5 * uu - lam * np.abs(b) * np.exp(-0.5 * uu))
    p = np.exp(logp - logp.max())
    mass = np.trapezoid(np.trapezoid(p, beta, axis=1), u)
    return float(np.trapezoid(np.trapezoid(p * np.exp(uu), beta, axis=1), u) / mass)


@pytest.mark.xfail(strict=True, reason=(
    "gibbs_lasso draws sigma2 from an inverse gamma of shape (n - 1 + d)/2, the "
    "flat-intercept form; the stated 1/sigma2 prior without an intercept gives "
    "(n + d)/2"))
def test_gibbs_lasso_unknown_sigma2_matches_quadrature_at_d1():
    n, lam = 10, 1.0
    g = np.random.default_rng(401)
    x = g.normal(size=n)
    y = 0.8 * x + g.normal(0.0, 0.7, size=n)
    want = _lasso_sigma2_posterior_mean(x, y, lam)
    chain = gibbs_lasso(Dataset(y=y, X=x[:, None]), lam, None,
                        GibbsConfig(iters=21000, burnin=1000, seed=402))
    s2 = chain.draws[:, -1]
    se = float(np.std(s2, ddof=1)) / math.sqrt(effective_sample_size(s2))
    assert abs(float(np.mean(s2)) - want) <= _z_threshold(1) * se

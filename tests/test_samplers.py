import hashlib
import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ebib import rng as rngmod
from ebib.errors import DomainError, SamplerError
from ebib.models import (
    BayesLasso,
    Dataset,
    GaussMixtureKnownK,
    GPriorParams,
    GPriorRegression,
    IndepNormalRegression,
    MarkovDirichlet,
    MixtureParams,
    NormalMean,
    OverfittedMixture,
    RegressionParams,
)
from ebib.mmle import lasso_mmle_em
from ebib.numerics import log_gamma, rank_one_gaussian_logpdf
from ebib.samplers import (
    GibbsConfig,
    _allocate,
    _chain,
    _dirichlet,
    effective_sample_size,
    gibbs_gauss_mixture,
    gibbs_lasso,
    gibbs_mixture_weights,
    orthogonal_design,
    simulate,
    uniform_design,
)
from helpers import child_env


def test_gibbs_config_validation():
    with pytest.raises(DomainError):
        GibbsConfig(iters=10, burnin=10, seed=0)
    # a chain's size and seed are always its caller's
    with pytest.raises(TypeError):
        GibbsConfig()


def test_simulate_empty_dataset():
    assert simulate(NormalMean(), 2.0, 0, 0).n == 0


def test_simulate_same_seed_determinism():
    a = simulate(NormalMean(), 2.0, 20, (3, "rep", 1))
    b = simulate(NormalMean(), 2.0, 20, (3, "rep", 1))
    assert np.array_equal(a.y, b.y)
    c = simulate(NormalMean(), 2.0, 20, (3, "rep", 2))
    assert not np.array_equal(a.y, c.y)


def test_simulate_m1_clt_band():
    data = simulate(NormalMean(sigma2=1.0), 2.0, 10**5, 0)
    assert abs(float(np.mean(data.y)) - 2.0) < 3.0 * 10 ** (-5.0 / 2.0) * 2.0


def test_simulate_m4_counts_sum():
    from ebib.models import MarkovDirichlet

    fam = MarkovDirichlet(K=3)
    P = np.array([[0.7, 0.3, 0.0], [0.0, 0.4, 0.6], [0.5, 0.25, 0.25]])
    data = simulate(fam, P, 777, 4)
    assert data.counts.sum() == 777
    assert data.counts[0, 2] == 0 and data.counts[1, 0] == 0


def test_simulate_m3_design_is_centered():
    fam = GPriorRegression(V=np.eye(2))
    theta0 = GPriorParams(sigma=1.0, alpha=1.0, beta=[1.0, -1.0])
    data = simulate(fam, theta0, 64, 2)
    assert np.allclose(data.X.sum(axis=0), 0.0, atol=1e-9)


def test_simulate_draws_are_pinned_for_every_family():
    # sha256 prefixes of (y, X, counts) recorded before the per-family bodies
    # moved onto the model classes; a changed draw order changes the hash
    cases = {
        "M1": (NormalMean(sigma2=2.0), 1.5, "f83b795473fd8c4d"),
        "M2": (IndepNormalRegression(sigma2=1.0),
               RegressionParams(beta=[0.8, -0.4, 0.0]), "6f0e99529292d84d"),
        "M3": (GPriorRegression(),
               GPriorParams(sigma=1.3, alpha=0.5, beta=[1.0, -1.0, 0.5]),
               "46629fd092ddd01b"),
        "M4": (MarkovDirichlet(K=3),
               np.array([[0.6, 0.4, 0.0], [0.0, 0.3, 0.7], [0.5, 0.2, 0.3]]),
               "14b38654e0572f87"),
        "M5": (BayesLasso(sigma2=None),
               RegressionParams(beta=[1.0, 0.0, -0.5], sigma2=0.8),
               "c91a907bcde0cbc5"),
        "M6": (GaussMixtureKnownK(K=2),
               MixtureParams(weights=[0.3, 0.7], means=[-2.0, 1.0],
                             variances=[0.5, 1.5]), "f1aff8657119e0a0"),
        "M7": (OverfittedMixture(K=2),
               MixtureParams(weights=[0.4, 0.6], means=[0.0, 1.0],
                             variances=[1.0, 1.0]), "a808c390f3f55bdb"),
    }
    for fid, (fam, theta0, want) in cases.items():
        data = simulate(fam, theta0, 30, (5, "hash"))
        h = hashlib.sha256()
        for arr in (data.y, data.X, data.counts):
            h.update(b"-" if arr is None else np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest()[:16] == want, fid


def test_design_generators():
    X = orthogonal_design(50, 3, seed=1, scale=2.0)
    G = X.T @ X
    assert np.allclose(G, np.diag(np.full(3, 50 * 4.0)), atol=1e-8)
    with pytest.raises(DomainError):
        orthogonal_design(2, 3, seed=0)
    U = uniform_design(2000, 2, seed=1)
    assert U.min() >= -10.0 and U.max() <= 10.0


def test_effective_sample_size_iid_vs_correlated():
    g = np.random.default_rng(0)
    iid = g.normal(size=4000)
    assert effective_sample_size(iid) > 2500
    ar = np.empty(4000)
    ar[0] = 0.0
    for t in range(1, 4000):
        ar[t] = 0.95 * ar[t - 1] + g.normal()
    assert effective_sample_size(ar) < 400
    assert effective_sample_size(np.ones(10)) == 10.0


def test_chain_rejects_non_finite_draws():
    draws = np.ones((5, 2))
    draws[3, 1] = math.nan
    with pytest.raises(SamplerError) as exc:
        _chain(draws, ("a", "b"))
    assert exc.value.iteration == 3


def test_chain_output_csv(tmp_path):
    chain = _chain(np.arange(6.0).reshape(3, 2), ("a", "b"))
    path = tmp_path / "chain.csv"
    chain.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    assert len(lines) == 4


def test_wald_moments_match_inverse_gaussian():
    g = np.random.default_rng(1)
    mu, lam = 2.0, 3.0
    x = g.wald(mu, lam, size=200000)
    assert float(np.mean(x)) == pytest.approx(mu, abs=0.02)
    assert float(np.var(x)) == pytest.approx(mu**3 / lam, abs=0.1)


# ---------------------------------------------------------------------------
# LASSO Gibbs


def _orthonormal_lasso_data(n=120, seed=31):
    X = orthogonal_design(n, 1, seed=seed, scale=1.0 / math.sqrt(n))  # X^tX = I
    g = np.random.default_rng(seed + 1)
    y = X[:, 0] * 1.2 + g.normal(size=n)
    return Dataset(y=y, X=X)


def test_gibbs_lasso_bit_reproducible():
    data = _orthonormal_lasso_data()
    cfg = GibbsConfig(iters=500, burnin=100, seed=9)
    a = gibbs_lasso(data, 1.0, sigma2=1.0, cfg=cfg)
    b = gibbs_lasso(data, 1.0, sigma2=1.0, cfg=cfg)
    assert np.array_equal(a.draws, b.draws)


def test_gibbs_lasso_histogram_matches_closed_marginal():
    # d=1, orthonormal design, known sigma: L1 between the Gibbs histogram
    # density and the closed-form coordinate posterior below 0.05
    fam = BayesLasso(sigma2=1.0)
    data = _orthonormal_lasso_data()
    lam = 1.5
    cfg = GibbsConfig(iters=51000, burnin=1000, seed=13)
    chain = gibbs_lasso(data, lam, sigma2=1.0, cfg=cfg)
    draws = chain.draws[:, 0]
    assert draws.shape[0] == 50000
    closed = fam.coordinate_posterior(lam, data, 0)
    edges = np.linspace(draws.min() - 0.05, draws.max() + 0.05, 81)
    hist, _ = np.histogram(draws, bins=edges, density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    width = edges[1] - edges[0]
    l1 = float(np.sum(np.abs(hist - closed.pdf(centers))) * width)
    # tail mass outside the histogram window
    l1 += float(1.0 - np.trapezoid(
        np.clip(closed.pdf(np.linspace(edges[0], edges[-1], 2001)), 0, None),
        np.linspace(edges[0], edges[-1], 2001)))
    assert l1 < 0.05


def test_gibbs_lasso_unknown_sigma_tracks_truth():
    g = np.random.default_rng(5)
    X = g.uniform(-2, 2, size=(200, 3))
    beta0 = np.array([1.0, 0.0, -1.5])
    y = X @ beta0 + g.normal(0, 1.0, size=200)
    chain = gibbs_lasso(Dataset(y=y, X=X), 1.0, sigma2=None,
                        cfg=GibbsConfig(iters=3000, burnin=500, seed=6))
    assert chain.names[-1] == "sigma2"
    s2_mean = float(chain.draws[:, -1].mean())
    assert 0.6 < s2_mean < 1.6


# ---------------------------------------------------------------------------
# mixture Gibbs


def _enumeration_posterior_mean_p1(y, lam, K, base):
    """Exact posterior mean of p1 by summing over all K^n allocations."""
    n = y.size
    yc = y - base.loc_mean
    terms, means = [], []
    for z in itertools.product(range(K), repeat=n):
        z = np.asarray(z)
        counts = np.bincount(z, minlength=K)
        logw = log_gamma(K * lam) - log_gamma(K * lam + n)
        for j in range(K):
            logw += log_gamma(lam + counts[j]) - log_gamma(lam)
            sel = yc[z == j]
            logw += rank_one_gaussian_logpdf(
                counts[j], float(sel.sum()), float((sel**2).sum()),
                base.comp_var, base.loc_var)
        terms.append(logw)
        means.append((lam + counts[0]) / (K * lam + n))
    terms = np.asarray(terms)
    w = np.exp(terms - terms.max())
    w /= w.sum()
    return float(w @ np.asarray(means))


@pytest.mark.parametrize("K", range(2, 10))
def test_dirichlet_helper_matches_numpy_draw_for_draw(K):
    # shapes all below 0.1 (numpy's stick-breaking path), mixed, in 0.1-1 and
    # above 1; the next draw checks that both leave the stream in one state
    pick = np.random.default_rng(K)
    for lo, hi in [(0.01, 0.1), (0.01, 5.0), (0.1, 1.0), (1.0, 50.0)]:
        for rep in range(10):
            alpha = pick.uniform(lo, hi, size=K).tolist()
            want, got = np.random.default_rng(rep), np.random.default_rng(rep)
            assert np.array_equal(_dirichlet(got, alpha), want.dirichlet(alpha))
            assert got.random() == want.random()


def _allocate_by_axis0(logp, g):
    # reference: the reductions as numpy's axis-0 max, sum and cumsum
    logp = logp - logp.max(axis=0)
    p = np.exp(logp)
    p /= p.sum(axis=0)
    z = (p.cumsum(axis=0) < g.uniform(size=logp.shape[1])).sum(axis=0)
    return z, np.bincount(z, minlength=logp.shape[0])


@pytest.mark.parametrize("K", range(2, 10))
def test_allocate_matches_axis0_reductions(K):
    pick = np.random.default_rng(K)
    for n in (2, 7, 8, 9, 100):
        for rep in range(20):
            logp = pick.normal(0.0, 3.0, size=(K, n))
            want, got = np.random.default_rng(rep), np.random.default_rng(rep)
            z0, c0 = _allocate_by_axis0(logp, want)
            z1, c1 = _allocate(logp.copy(), got)
            assert np.array_equal(z1, z0) and np.array_equal(c1, c0)
            assert got.random() == want.random()


def test_gibbs_mixture_weights_matches_enumeration_at_n8():
    fam = OverfittedMixture(K=2, comp_var=1.0, loc_mean=0.0, loc_var=4.0)
    t0 = MixtureParams(weights=[1.0, 0.0], means=[0.5, 0.0], variances=[1.0, 1.0])
    data = simulate(fam, t0, 8, 77)
    lam = 0.5
    exact = _enumeration_posterior_mean_p1(data.y, lam, 2, fam)
    chain = gibbs_mixture_weights(data, lam, fam,
                                  GibbsConfig(iters=21000, burnin=1000, seed=8))
    p1 = chain.draws[:, 0]
    se = float(np.std(p1, ddof=1)) / math.sqrt(effective_sample_size(p1))
    assert abs(float(np.mean(p1)) - exact) <= 3.0 * se


def test_gibbs_mixture_weights_emptying_tendency():
    # single-component truth, lam below d0/2: the extra weight empties out
    fam = OverfittedMixture(K=2, comp_var=1.0, loc_mean=0.0, loc_var=4.0)
    t0 = MixtureParams(weights=[1.0, 0.0], means=[0.0, 0.0], variances=[1.0, 1.0])
    data = simulate(fam, t0, 400, 21)
    chain = gibbs_mixture_weights(data, 0.5, fam,
                                  GibbsConfig(iters=4000, burnin=1000, seed=22))
    w = chain.draws[:, :2]
    assert float(np.mean(np.min(w, axis=1))) < 0.2


def test_gibbs_mixture_weights_bit_reproducible():
    fam = OverfittedMixture(K=2)
    data = simulate(fam, MixtureParams(weights=[1.0, 0.0], means=[0.0, 0.0],
                                       variances=[1.0, 1.0]), 30, 5)
    cfg = GibbsConfig(iters=300, burnin=50, seed=4)
    a = gibbs_mixture_weights(data, 0.5, fam, cfg)
    b = gibbs_mixture_weights(data, 0.5, fam, cfg)
    assert np.array_equal(a.draws, b.draws)


class _RecordingGenerator:
    """Hands every call to the generator ``g`` and records the (loc, scale)
    of each scalar ``normal`` draw in ``calls``."""

    def __init__(self, g, calls):
        self._g, self._calls = g, calls

    def normal(self, loc=0.0, scale=1.0, size=None):
        if size is None:
            self._calls.append((loc, scale))
        return self._g.normal(loc, scale, size)

    def __getattr__(self, name):
        return getattr(self._g, name)


def test_gibbs_mixture_weights_location_scales_follow_the_counts(monkeypatch):
    # the chain keeps weights and counts, not the locations; each sweep draws
    # location j with sd sqrt(1 / (c_j / comp_var + 1 / loc_var)), where c_j
    # is that sweep's retained count, and recording the draws changes none
    fam = OverfittedMixture(K=3, comp_var=0.7, loc_mean=0.5, loc_var=2.5)
    t0 = MixtureParams(weights=[0.5, 0.5], means=[-1.0, 1.5], variances=[1.0, 1.0])
    data = simulate(OverfittedMixture(K=2), t0, 60, (7, "loc-scale"))
    cfg = GibbsConfig(iters=300, burnin=50, seed=8)
    plain = gibbs_mixture_weights(data, 0.5, fam, cfg)
    calls = []
    stream = rngmod.stream
    monkeypatch.setattr(rngmod, "stream",
                        lambda *key: _RecordingGenerator(stream(*key), calls))
    chain = gibbs_mixture_weights(data, 0.5, fam, cfg)
    assert np.array_equal(chain.draws, plain.draws)
    scales = np.array([scale for _, scale in calls]).reshape(cfg.iters, fam.K)
    counts = chain.draws[:, fam.K:]
    want = np.sqrt(1.0 / (counts / fam.comp_var + 1.0 / fam.loc_var))
    assert float(np.max(np.abs(scales[cfg.burnin:] - want))) == 0.0


def test_gibbs_gauss_mixture_recovers_separated_components():
    fam = OverfittedMixture(K=2, comp_var=1.0)  # only for simulate dispatch
    t0 = MixtureParams(weights=[0.5, 0.5], means=[-4.0, 4.0], variances=[1.0, 1.0])
    data = simulate(fam, t0, 400, 9)
    chain = gibbs_gauss_mixture(data, GaussMixtureKnownK(K=2, omega=2.0), (0.0, 0.1, 2.0),
                                cfg=GibbsConfig(iters=4000, burnin=1000, seed=10))
    mu = np.sort(chain.draws[:, 2:4].mean(axis=0))
    assert mu[0] == pytest.approx(-4.0, abs=0.3)
    assert mu[1] == pytest.approx(4.0, abs=0.3)
    v = chain.draws[:, 4:6].mean(axis=0)
    assert np.all(v > 0.5) and np.all(v < 2.0)


def test_gibbs_gauss_mixture_bit_reproducible():
    fam = OverfittedMixture(K=2, comp_var=1.0)
    t0 = MixtureParams(weights=[0.5, 0.5], means=[-2.0, 2.0], variances=[1.0, 1.0])
    data = simulate(fam, t0, 50, 11)
    cfg = GibbsConfig(iters=400, burnin=100, seed=12)
    fam6 = GaussMixtureKnownK(K=2, omega=2.0)
    a = gibbs_gauss_mixture(data, fam6, (0.0, 1.0, 2.0), cfg=cfg)
    b = gibbs_gauss_mixture(data, fam6, (0.0, 1.0, 2.0), cfg=cfg)
    assert np.array_equal(a.draws, b.draws)


# ---------------------------------------------------------------------------
# pinned chains: values recorded before the allocation step, the LASSO solves
# and the mixture sweeps were rewritten; the streams must be drawn in the same
# order


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("n, want", [(8, "9c6d0fedf86bfd65"), (400, "4f6a3d6408674365")])
def test_gibbs_mixture_weights_draws_are_pinned(n, want):
    fam = OverfittedMixture(K=2, comp_var=1.0, loc_mean=0.0, loc_var=4.0)
    t0 = MixtureParams(weights=[1.0, 0.0], means=[0.5, 0.0], variances=[1.0, 1.0])
    data = simulate(fam, t0, n, (7, "pin", n))
    chain = gibbs_mixture_weights(data, 0.5, fam,
                                  GibbsConfig(iters=500, burnin=100, seed=3))
    assert chain.draws.shape == (400, 4)
    assert _digest(chain.draws) == want


# K components on two-cluster data; lam_ref 0.05 puts Dirichlet shapes below
# 0.1, and n = 0 with lam_ref 0.05 takes numpy's stick-breaking Dirichlet path
@pytest.mark.parametrize("K, n, lam_ref, want", [
    (3, 8, 0.05, "a5a5cdcb7de334b6"),
    (3, 8, 0.5, "524e26d52a094258"),
    (3, 1600, 0.05, "6a4b15d5313c6957"),
    (3, 1600, 0.5, "2eff3e1453d772fa"),
    (9, 8, 0.05, "78710f928354ae61"),
    (9, 8, 0.5, "3dfa50a125af339b"),
    (9, 1600, 0.05, "76959d6c6a69f76b"),
    (9, 1600, 0.5, "b2e75b9ae1f65e34"),
    (3, 0, 0.05, "43eb927f9a6f8e59"),
])
def test_gibbs_mixture_weights_draws_are_pinned_for_k_and_lam(K, n, lam_ref, want):
    fam = OverfittedMixture(K=K, comp_var=1.0, loc_mean=0.0, loc_var=4.0)
    t0 = MixtureParams(weights=[0.5, 0.5], means=[-1.0, 1.5], variances=[1.0, 1.0])
    data = simulate(OverfittedMixture(K=2, comp_var=1.0), t0, n, (7, "pinK", n))
    chain = gibbs_mixture_weights(data, lam_ref, fam,
                                  GibbsConfig(iters=300, burnin=50, seed=11))
    assert chain.draws.shape == (250, 2 * K)
    assert _digest(chain.draws) == want


def test_gibbs_gauss_mixture_draws_are_pinned():
    t0 = MixtureParams(weights=[0.3, 0.3, 0.4], means=[-3.0, 0.0, 3.0],
                       variances=[1.0, 1.0, 1.0])
    data = simulate(OverfittedMixture(K=3), t0, 90, (7, "pin3"))
    chain = gibbs_gauss_mixture(data, GaussMixtureKnownK(K=3, omega=2.0), (0.0, 0.5, 2.0),
                                cfg=GibbsConfig(iters=400, burnin=100, seed=5))
    assert chain.draws.shape == (300, 9)
    assert _digest(chain.draws) == "d2017d939fa2aff9"


def test_gibbs_gauss_mixture_draws_are_pinned_at_k9():
    t0 = MixtureParams(weights=[1 / 9] * 9, means=list(np.linspace(-8.0, 8.0, 9)),
                       variances=[1.0] * 9)
    data = simulate(OverfittedMixture(K=9), t0, 200, (7, "pin9"))
    chain = gibbs_gauss_mixture(data, GaussMixtureKnownK(K=9, omega=2.0), (0.0, 0.5, 2.0),
                                cfg=GibbsConfig(iters=300, burnin=50, seed=13))
    assert chain.draws.shape == (250, 27)
    assert _digest(chain.draws) == "2d6efcfb022380e1"


# (last retained row, column means) per sigma2 setting
_LASSO_PINNED = {
    1.0: ([1.0216003046234898, -0.3026316049965623, 0.016447822430625078,
           2.330899448082005, 1.0224673826253614, 1.520282003656029,
           0.04348987471571185, 0.9023707596320688],
          [1.0111541599812937, -0.4224391994202222, -0.005487782258668868,
           2.224479116238225, 1.248328101290677, 0.8795401162298256,
           0.6241042534164905, 2.344201425810072]),
    None: ([1.1054915546231883, -0.6307158658602515, 0.0878108596352766,
            2.1647831710664494, 0.9023581436838095, 0.35271022180930106,
            0.03937718172100201, 3.351196136214328, 0.661746873832871],
           [1.0213640903935575, -0.43748140713732525, -0.016681298164815686,
            2.2354273905011555, 1.3922358103580341, 0.9764326334694173,
            0.6244302721388553, 2.656723609583569, 0.7747707490541222]),
}


@pytest.mark.parametrize("sigma2", [1.0, None], ids=["sigma2-fixed", "sigma2-sampled"])
def test_gibbs_lasso_draws_are_pinned(sigma2):
    # the solves may round differently, so the pin is relative, not bitwise
    g = np.random.default_rng(17)
    X = g.uniform(-2, 2, size=(60, 4))
    y = X @ np.array([1.0, -0.5, 0.0, 2.0]) + g.normal(size=60)
    chain = gibbs_lasso(Dataset(y=y, X=X), 1.3, sigma2=sigma2,
                        cfg=GibbsConfig(iters=300, burnin=100, seed=4))
    last, means = _LASSO_PINNED[sigma2]
    np.testing.assert_allclose(chain.draws[-1], last, rtol=1e-9, atol=0)
    np.testing.assert_allclose(chain.draws.mean(axis=0), means, rtol=1e-9, atol=0)


@pytest.mark.parametrize("sigma2, want", [(1.0, "6eea0eae5b87510a"),
                                           (None, "ad99fc9db61cde64")],
                         ids=["sigma2-fixed", "sigma2-sampled"])
def test_gibbs_lasso_draws_are_digest_pinned(sigma2, want):
    # d = 1 with X^tX = 1, so the solves are scalar and the pin is bitwise;
    # the sampled case moves when the sigma2 shape changes
    chain = gibbs_lasso(_orthonormal_lasso_data(), 1.0, sigma2=sigma2,
                        cfg=GibbsConfig(iters=500, burnin=100, seed=3))
    assert chain.draws.shape == (400, 2 if sigma2 else 3)
    assert _digest(chain.draws) == want


def test_gibbs_lasso_factorization_failure_is_a_sampler_error():
    # two nearly equal, huge columns: the precision matrix loses positive
    # definiteness to rounding once 1/tau2 becomes negligible
    g = np.random.default_rng(0)
    x = g.normal(size=40)
    X = np.column_stack([x, x * (1 + 1e-13)]) * 1e8
    y = x + g.normal(size=40)
    with pytest.raises(SamplerError, match="not positive definite") as exc:
        gibbs_lasso(Dataset(y=y, X=X), 1.0, sigma2=1.0,
                    cfg=GibbsConfig(iters=20, burnin=5, seed=1))
    assert exc.value.iteration == 2


_SAME_ROUTINES = """
import json, sys
from ebib.samplers import _flapack_routines
first = sys.argv[1] == "loader-first"
ours = _flapack_routines() if first else None
fresh = "scipy.linalg" not in sys.modules
from scipy.linalg import lapack
ours = ours or _flapack_routines()
print(json.dumps([fresh, [a is b for a, b in
                          zip(ours, (lapack.dpotrf, lapack.dpotrs, lapack.dtrtrs))]]))
"""


@pytest.mark.parametrize("order", ["loader-first", "scipy-first"])
def test_flapack_routines_are_scipys_own_in_either_import_order(order):
    # a fresh interpreter, so that the order of the two loads is the test's
    proc = subprocess.run([sys.executable, "-c", _SAME_ROUTINES, order],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, [True, True, True]]


@pytest.mark.parametrize("lam, sigma2", [
    (math.nan, 1.0), (math.inf, 1.0), (-math.inf, None), (0.0, None),
    (1.0, -1.0), (1.0, 0.0), (1.0, math.nan), (1.0, math.inf),
], ids=["lam-nan", "lam-inf", "lam-neg-inf", "lam-zero",
        "sigma2-neg", "sigma2-zero", "sigma2-nan", "sigma2-inf"])
def test_gibbs_lasso_and_em_refuse_bad_rates_before_any_draw(monkeypatch, lam, sigma2):
    # a NaN or infinite lam ran a whole chain into "non-finite draw", and a
    # given sigma2 of -1 or 0 failed inside math.sqrt or numpy's wald
    def no_stream(*args):
        raise AssertionError("a stream was drawn from")

    data = _orthonormal_lasso_data()
    monkeypatch.setattr(rngmod, "stream", no_stream)
    cfg = GibbsConfig(iters=20, burnin=5, seed=0)
    with pytest.raises(DomainError):
        gibbs_lasso(data, lam, sigma2=sigma2, cfg=cfg)
    with pytest.raises(DomainError):
        lasso_mmle_em(data, init_lam=lam, gibbs_cfg=cfg, sigma2=sigma2)

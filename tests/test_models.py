import math

import numpy as np
import pytest
from scipy.stats import dirichlet as sp_dirichlet
from scipy.stats import invgamma, laplace, norm

from ebib.errors import (
    CapabilityError,
    DegenerateOracleError,
    DomainError,
    NonDifferentiableError,
)
from ebib.models import (
    BayesLasso,
    Dataset,
    DirichletRowsPosterior,
    GaussMixtureKnownK,
    GPriorParams,
    GPriorRegression,
    IndepNormalRegression,
    MarkovDirichlet,
    MixtureParams,
    ModelFamily,
    NormalMean,
    OverfittedMixture,
    RegressionParams,
    load_counts_csv,
    load_dataset_csv,
)
from ebib.marginal import log_marginal, mixture_marginal_exact
from ebib.mmle import mmle_grid
from ebib.posteriors import (
    GaussianPosterior,
    NormalInverseGammaPosterior,
    PointMassPosterior,
)
from ebib import rng as rngmod
from ebib.samplers import orthogonal_design, simulate
from helpers import (finite_diff_gradient, lasso_log_marginal, markov_path,
                     normal_mean_rows)

LOG_SQRT_2PI = 0.9189385332046727


# ---------------------------------------------------------------------------
# datasets


def test_dataset_validation():
    with pytest.raises(DomainError):
        Dataset(y=np.zeros(3), X=np.zeros((4, 2)))
    with pytest.raises(DomainError):
        Dataset(counts=np.array([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(DomainError):
        Dataset(counts=np.array([[1, -1], [0, 2]]))
    d = Dataset(counts=np.array([[1, 2], [3, 4]]))
    assert d.n == 10


def test_load_dataset_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x1,x2\n1.0,0.5,2.0\n-1.0,1.5,3.0\n")
    d = load_dataset_csv(path)
    assert d.n == 2
    assert np.allclose(d.y, [1.0, -1.0])
    assert np.allclose(d.X, [[0.5, 2.0], [1.5, 3.0]])


def test_load_dataset_csv_requires_y(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DomainError):
        load_dataset_csv(path)


def test_load_counts_csv(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("3,1\n0,6\n")
    d = load_counts_csv(path)
    assert d.counts.shape == (2, 2)
    assert d.n == 10


@pytest.mark.parametrize("loader, text, match", [
    (load_dataset_csv, "y,x1\n1,2\n3,4,5\n", "malformed"),
    (load_dataset_csv, "y,x1\n1,2\n3\n", "malformed"),
    (load_counts_csv, "1,2\n3\n", "malformed"),
    (load_counts_csv, "1,2\n3,x\n", "malformed"),
    (load_dataset_csv, "y\n", "no rows"),
    (load_dataset_csv, "y,x1\n", "no rows"),
], ids=["dataset-long-row", "dataset-short-row", "counts-short-row", "counts-text-cell",
        "dataset-header-only", "dataset-header-only-x1"])
def test_malformed_csv_raises_domain_error(tmp_path, loader, text, match):
    # numpy's ValueError used to escape the loaders, and a header-only
    # dataset loaded as n = 0
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match=match):
        loader(path)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_counts_are_rejected(tmp_path, bad):
    # an infinite count used to be cast to the smallest int64, giving a negative n
    with pytest.raises(DomainError, match="finite"):
        Dataset(counts=np.array([[bad, 1.0], [1.0, 1.0]]))
    path = tmp_path / "c.csv"
    path.write_text(f"{bad},1\n1,1\n")
    with pytest.raises(DomainError, match="finite"):
        load_counts_csv(path)


@pytest.mark.parametrize("text, column", [
    ("y,x1\n1.0,0.5\n,1.5\n", "y"),
    ("y,x1\n1.0,nan\n2.0,1.5\n", "x1"),
    ("y,x1,x2\n1.0,0.5,2.0\n2.0,1.5,\n", "x2"),
], ids=["empty-y", "nan-x1", "empty-last-x2"])
def test_load_dataset_csv_rejects_empty_and_nan_cells(tmp_path, text, column):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match=f"'{column}'"):
        load_dataset_csv(path)


# ---------------------------------------------------------------------------
# log-likelihood and log-prior checkpoints


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("family,call", [
    (NormalMean(), lambda fam, t: fam.log_prior(t, 1.0)),
    (NormalMean(), lambda fam, t: fam.log_likelihood(t, Dataset(y=[0.0, 1.0]))),
    (NormalMean(), lambda fam, t: fam.kl_exact(t, 1.0, 10)),
    (IndepNormalRegression(), lambda fam, t: fam.log_prior([t, 0.0], [1.0, 1.0])),
    (IndepNormalRegression(), lambda fam, t: fam.prior_gradient([0.0, t], [1.0, 1.0])),
    (BayesLasso(), lambda fam, t: fam.log_prior([t, 0.1], 1.0)),
    (BayesLasso(), lambda fam, t: fam.log_likelihood(
        [0.1, t], Dataset(y=[0.0, 1.0], X=np.eye(2)))),
], ids=["m1-prior", "m1-loglik", "m1-kl", "m2-prior", "m2-gradient", "m5-prior", "m5-loglik"])
def test_a_bare_parameter_point_with_a_non_finite_entry_raises(family, call, bad):
    # a NaN entry used to pass through to a nan log-density
    with pytest.raises(DomainError, match="finite"):
        call(family, bad)


def test_m1_loglik_standard_normal_point():
    fam = NormalMean(sigma2=1.0)
    assert fam.log_likelihood(0.0, Dataset(y=[0.0])) == pytest.approx(
        -LOG_SQRT_2PI, abs=1e-10
    )


def test_m1_log_prior_standard_normal_point():
    fam = NormalMean()
    assert fam.log_prior(0.0, 1.0) == pytest.approx(-LOG_SQRT_2PI, abs=1e-10)


def test_m7_loglik_two_component_point():
    fam = OverfittedMixture(K=2, comp_var=1.0)
    t = MixtureParams(weights=[0.5, 0.5], means=[1.0, -1.0], variances=[1.0, 1.0])
    want = math.log(0.5 * norm.pdf(0.0, 1.0, 1.0) + 0.5 * norm.pdf(0.0, -1.0, 1.0))
    assert fam.log_likelihood(t, Dataset(y=[0.0])) == pytest.approx(want, abs=1e-12)


def _regression_data(seed, n=25, d=3):
    g = np.random.default_rng(seed)
    X = g.normal(size=(n, d))
    return X, g.normal(size=d), g.normal(size=n)


def test_m2_loglik_matches_term_by_term_normal_logpdf():
    X, beta, y = _regression_data(11)
    fam = IndepNormalRegression(sigma2=1.7)
    want = float(np.sum(norm.logpdf(y, X @ beta, math.sqrt(1.7))))
    data = Dataset(y=y, X=X)
    for theta in (beta, RegressionParams(beta=beta, sigma2=5.0)):
        assert fam.log_likelihood(theta, data) == pytest.approx(want, rel=1e-12)


def test_m3_loglik_matches_term_by_term_normal_logpdf():
    X, beta, y = _regression_data(12)
    theta = GPriorParams(sigma=1.3, alpha=0.4, beta=beta)
    want = float(np.sum(norm.logpdf(y, 0.4 + X @ beta, 1.3)))
    got = GPriorRegression().log_likelihood(theta, Dataset(y=y, X=X))
    assert got == pytest.approx(want, rel=1e-12)


def test_m5_loglik_matches_term_by_term_normal_logpdf():
    X, beta, y = _regression_data(13)
    data = Dataset(y=y, X=X)
    # a known sigma2 overrides the parameter point's; an unknown one reads it
    for fam, theta, s2 in ((BayesLasso(sigma2=2.0), beta, 2.0),
                           (BayesLasso(sigma2=2.0), RegressionParams(beta, 0.6), 2.0),
                           (BayesLasso(sigma2=None), RegressionParams(beta, 0.6), 0.6)):
        want = float(np.sum(norm.logpdf(y, X @ beta, math.sqrt(s2))))
        assert fam.log_likelihood(theta, data) == pytest.approx(want, rel=1e-12)


def test_m6_loglik_matches_the_explicit_mixture_density():
    fam = GaussMixtureKnownK(K=3)
    y = np.random.default_rng(14).normal(0.5, 2.0, size=12)
    for w in ([0.2, 0.5, 0.3], [0.0, 0.6, 0.4]):
        t = MixtureParams(weights=w, means=[-1.0, 0.5, 2.0], variances=[0.5, 1.0, 2.5])
        dens = sum(w[j] * norm.pdf(y, t.means[j], math.sqrt(t.variances[j]))
                   for j in range(3))
        want = float(np.sum(np.log(dens)))
        assert fam.log_likelihood(t, Dataset(y=y)) == pytest.approx(want, rel=1e-12)


def test_m3_mle_matches_least_squares_with_intercept():
    X, beta, y = _regression_data(15, n=30, d=4)
    X = X - X.mean(axis=0)
    y = 0.7 + X @ beta + y
    coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(30), X]), y, rcond=None)
    sse = float(np.sum((y - coef[0] - X @ coef[1:]) ** 2))
    got = GPriorRegression().mle(Dataset(y=y, X=X))
    assert got.sigma == pytest.approx(math.sqrt(sse / 30), rel=1e-12)
    assert got.alpha == pytest.approx(coef[0], rel=1e-12)
    assert np.allclose(got.beta, coef[1:], rtol=1e-12, atol=0)


def test_mixture_simulate_rejects_a_truth_the_family_rejects():
    # a 2-component truth of variance 25 for 3-component families; M7 also
    # fixes the component variance
    two = MixtureParams(weights=[0.5, 0.5], means=[-1.0, 1.0], variances=[25.0, 25.0])
    for fam in (OverfittedMixture(K=3, comp_var=1.0), GaussMixtureKnownK(K=3)):
        with pytest.raises(DomainError, match="component count mismatch"):
            simulate(fam, two, 50, 0)
    with pytest.raises(DomainError, match="variances are fixed"):
        simulate(OverfittedMixture(K=2, comp_var=1.0), two, 50, 0)
    assert simulate(GaussMixtureKnownK(K=2), two, 50, 0).y.size == 50
    # an empty sample checks the truth too
    with pytest.raises(DomainError, match="component count mismatch"):
        simulate(OverfittedMixture(K=3, comp_var=1.0), two, 0, 0)


def test_m4_loglik_zero_counts_and_impossible_transition():
    fam = MarkovDirichlet(K=2)
    P = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert fam.log_likelihood(P, Dataset(counts=np.zeros((2, 2)))) == 0.0
    assert fam.log_likelihood(P, Dataset(counts=[[0, 0], [0, 1]])) == -math.inf


def test_m4_loglik_sums_the_path_transition_log_probabilities():
    # sum over cells of c log P, against the path's own transitions; row 0
    # has a zero cell, which the path never takes
    g = np.random.default_rng(16)
    P = _random_transition(g, 3, zeros=1)
    path, counts = markov_path(P, 200, g)
    want = math.fsum(math.log(P[a, b]) for a, b in zip(path[:-1], path[1:]))
    got = MarkovDirichlet(K=3).log_likelihood(P, Dataset(counts=counts))
    assert got == pytest.approx(want, rel=1e-12)


def test_m5_log_prior_with_unknown_sigma2_adds_the_stated_1_over_sigma2_prior():
    # each coefficient Laplace(0, sigma/lam); sigma2 unknown adds log(1/sigma2)
    beta = np.array([0.4, -1.1, 2.0])
    for lam, s2 in ((0.7, 0.6), (2.5, 1.9)):
        want = float(np.sum(laplace.logpdf(beta, scale=math.sqrt(s2) / lam)))
        got = BayesLasso(sigma2=s2).log_prior(beta, lam)
        assert got == pytest.approx(want, rel=1e-12)
        got = BayesLasso(sigma2=None).log_prior(RegressionParams(beta, s2), lam)
        assert got == pytest.approx(want - math.log(s2), rel=1e-12)


def test_m3_plug_in_uses_the_empirical_gram_matrix():
    X, beta, e = _regression_data(17, n=40, d=4)
    X = X - X.mean(axis=0)
    y = 0.3 + X @ beta + e
    coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(40), X]), y, rcond=None)
    fit = X @ coef[1:]
    s2 = float(np.sum((y - coef[0] - fit) ** 2)) / 40
    want = float(fit @ fit) / 40 / (s2 * (4 - 2))
    # the design limit V is the oracle's; the plug-in reads X^t X / n instead
    fam = GPriorRegression(V=np.eye(4) * 123.0)
    data = Dataset(y=y, X=X)
    assert fam.pseudo_hyperparameter(data) == pytest.approx(want, rel=1e-10)
    assert fam.oracle_hyperparameter(fam.mle(data)) != pytest.approx(want, rel=1e-3)


def _dense_gaussian_kl(m0, S0, m1, S1) -> float:
    """KL(N(m0, S0) || N(m1, S1)) from the dense matrices."""
    r = m1 - m0
    return 0.5 * (float(np.trace(np.linalg.solve(S1, S0))) - m0.size
                  + float(r @ np.linalg.solve(S1, r))
                  + np.linalg.slogdet(S1)[1] - np.linalg.slogdet(S0)[1])


def test_m2_mle_and_the_all_boundary_marginal_and_kl():
    X, beta, e = _regression_data(18)
    y = X @ beta + e
    data = Dataset(y=y, X=X)
    fam = IndepNormalRegression(sigma2=1.7)
    mle = fam.mle(data)
    assert np.allclose(mle.beta, np.linalg.solve(X.T @ X, X.T @ y), rtol=1e-10, atol=0)
    assert mle.sigma2 == 1.7
    # every tau2 at 0: the prior is a point mass at 0 and m_lam = N(0, s2 I)
    zero = np.zeros(3)
    assert all(isinstance(p, PointMassPosterior) for p in fam.posterior(zero, data))
    want = float(np.sum(norm.logpdf(y, 0.0, math.sqrt(1.7))))
    assert log_marginal(fam, zero, data) == pytest.approx(want, rel=1e-12)
    S0 = 1.7 * np.eye(25)
    for tau2 in (zero, np.array([0.8, 0.0, 2.0])):
        want = _dense_gaussian_kl(X @ beta, S0, np.zeros(25), S0 + X @ np.diag(tau2) @ X.T)
        got = fam.kl_exact(RegressionParams(beta, 1.7), tau2, 25, data)
        assert got == pytest.approx(want, rel=1e-10)


def test_m6_log_prior_matches_term_by_term_oracle():
    fam = GaussMixtureKnownK(K=2, omega=2.0)
    t = MixtureParams(weights=[0.3, 0.7], means=[-0.5, 1.2], variances=[0.8, 1.5])
    xi, tau, psi = 0.2, 1.7, 3.0
    want = sp_dirichlet.logpdf(t.weights, [1.0, 1.0])
    for j in range(2):
        want += norm.logpdf(t.means[j], xi, math.sqrt(t.variances[j] / tau))
        want += invgamma.logpdf(t.variances[j], a=1.0, scale=psi / 2.0)
    assert fam.log_prior(t, (xi, tau, psi)) == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# prior gradients


def test_m1_prior_gradient_checkpoint():
    assert NormalMean().prior_gradient(2.0, 4.0)[0] == pytest.approx(-0.5, abs=1e-12)


def test_m5_prior_gradient_checkpoint():
    fam = BayesLasso(sigma2=1.0)
    got = fam.prior_gradient(np.array([1.0, -3.0]), 2.0)
    assert np.allclose(got, [-2.0, 2.0], atol=1e-12)


def test_m5_prior_gradient_nondifferentiable_at_zero():
    with pytest.raises(NonDifferentiableError):
        BayesLasso(sigma2=1.0).prior_gradient(np.array([1.0, 0.0]), 2.0)


def test_m1_m5_m2_gradients_match_finite_differences():
    g = np.random.default_rng(5)
    m1 = NormalMean()
    for _ in range(20):
        t, lam = float(g.normal()), float(g.uniform(0.5, 4.0))
        fd = finite_diff_gradient(lambda x: m1.log_prior(float(x[0]), lam), [t])
        assert np.allclose(m1.prior_gradient(t, lam), fd, atol=1e-6)
    m2 = IndepNormalRegression()
    for _ in range(20):
        beta = g.normal(size=3)
        tau2 = g.uniform(0.5, 3.0, size=3)
        fd = finite_diff_gradient(lambda b: m2.log_prior(b, tau2), beta)
        assert np.allclose(m2.prior_gradient(beta, tau2), fd, atol=1e-6)
    m5 = BayesLasso(sigma2=2.0)
    for _ in range(20):
        beta = g.normal(size=4)
        beta[np.abs(beta) < 0.2] = 0.5  # keep clear of the kink
        lam = float(g.uniform(0.5, 3.0))
        fd = finite_diff_gradient(lambda b: m5.log_prior(b, lam), beta)
        assert np.allclose(m5.prior_gradient(beta, lam), fd, atol=1e-6)


def _as_vector(theta):
    """A g-prior parameter point as the vector (sigma, alpha, beta)."""
    return np.concatenate([[theta.sigma, theta.alpha], theta.beta])


def _from_vector(v):
    return GPriorParams(sigma=float(v[0]), alpha=float(v[1]), beta=np.asarray(v[2:], float))


def test_m3_gradient_matches_finite_differences():
    g = np.random.default_rng(6)
    V = np.array([[2.0, 0.3], [0.3, 1.0]])
    fam = GPriorRegression(V=V)
    for _ in range(20):
        theta = GPriorParams(sigma=float(g.uniform(0.5, 2.0)),
                             alpha=float(g.normal()), beta=g.normal(size=2))
        lam = float(g.uniform(0.5, 5.0))
        fd = finite_diff_gradient(
            lambda v: fam.log_prior(_from_vector(v), lam), _as_vector(theta))
        assert np.allclose(fam.prior_gradient(theta, lam), fd, atol=1e-5)


def test_m6_m7_gradients_match_finite_differences_in_free_coords():
    g = np.random.default_rng(7)
    m6 = GaussMixtureKnownK(K=2, omega=2.0)
    m7 = OverfittedMixture(K=2, comp_var=1.0, loc_mean=0.0, loc_var=4.0)
    for _ in range(20):
        w1 = float(g.uniform(0.2, 0.8))
        mu = g.normal(size=2)
        v = g.uniform(0.5, 2.0, size=2)
        lam6 = (float(g.normal()), float(g.uniform(0.5, 3.0)), float(g.uniform(0.5, 3.0)))

        def free6(x):
            t = MixtureParams(weights=[x[0], 1.0 - x[0]], means=x[1:3], variances=x[3:5])
            return m6.log_prior(t, lam6)

        x0 = np.concatenate([[w1], mu, v])
        t0 = MixtureParams(weights=[w1, 1 - w1], means=mu, variances=v)
        assert np.allclose(m6.prior_gradient(t0, lam6),
                           finite_diff_gradient(free6, x0), atol=1e-5)

        lam7 = float(g.uniform(0.2, 2.0))

        def free7(x):
            t = MixtureParams(weights=[x[0], 1.0 - x[0]], means=x[1:3],
                              variances=[1.0, 1.0])
            return m7.log_prior(t, lam7)

        t7 = MixtureParams(weights=[w1, 1 - w1], means=mu, variances=[1.0, 1.0])
        assert np.allclose(m7.prior_gradient(t7, lam7),
                           finite_diff_gradient(free7, np.concatenate([[w1], mu])),
                           atol=1e-5)


def test_m4_gradient_matches_finite_differences_in_free_coords():
    g = np.random.default_rng(8)
    fam = MarkovDirichlet(K=3)
    for _ in range(10):
        P = g.dirichlet(np.ones(3) * 3.0, size=3)
        alpha = g.uniform(0.5, 4.0, size=(3, 3))

        def free(x):
            Q = np.empty((3, 3))
            for i in range(3):
                Q[i, :2] = x[2 * i : 2 * i + 2]
                Q[i, 2] = 1.0 - Q[i, :2].sum()
            return fam.log_prior(Q, alpha)

        x0 = P[:, :2].ravel()
        assert np.allclose(fam.prior_gradient(P, alpha),
                           finite_diff_gradient(free, x0), atol=1e-5)


# ---------------------------------------------------------------------------
# oracles


def test_m4_oracle_on_the_shipped_transition_is_pinned():
    # markov-sparsity's transition: a zero cell goes to the lower edge, the
    # dominant cell of each row to the upper edge
    P = [[0.7, 0.3, 0.0], [0.0, 0.4, 0.6], [0.5, 0.25, 0.25]]
    got = MarkovDirichlet(K=3).oracle_hyperparameter(P)
    assert got.tolist() == [[50.0, 21.92604449919309, 0.001],
                            [0.001, 33.831582044970695, 50.0],
                            [50.0, 25.746906197802296, 25.74690616786189]]


def test_oracle_argmax_property_on_grids():
    g = np.random.default_rng(9)
    m1 = NormalMean()
    star = m1.oracle_hyperparameter(1.7)
    vals = [m1.log_prior(1.7, lam) for lam in np.geomspace(0.1, 30, 100)]
    assert m1.log_prior(1.7, star) >= max(vals)

    m5 = BayesLasso(sigma2=1.0)
    beta = np.array([0.4, -1.1, 2.0])
    star5 = m5.oracle_hyperparameter(beta)
    vals5 = [m5.log_prior(beta, lam) for lam in np.geomspace(0.05, 20, 100)]
    assert m5.log_prior(beta, star5) >= max(vals5)

    m6 = GaussMixtureKnownK(K=3, omega=2.5)
    t = MixtureParams(weights=[0.2, 0.3, 0.5], means=[-1.0, 0.4, 2.0],
                      variances=[0.7, 1.3, 0.9])
    xi_s, tau_s, psi_s = m6.oracle_hyperparameter(t)
    best = m6.log_prior(t, (xi_s, tau_s, psi_s))
    for _ in range(100):
        lam = (float(g.normal(0, 2)), float(g.uniform(0.1, 5)), float(g.uniform(0.1, 5)))
        assert best >= m6.log_prior(t, lam) - 1e-12


def test_m6_symmetric_oracle_example():
    fam = GaussMixtureKnownK(K=2, omega=2.0)
    t = MixtureParams(weights=[0.5, 0.5], means=[-1.0, 1.0], variances=[1.0, 1.0])
    xi, tau, psi = fam.oracle_hyperparameter(t)
    assert xi == pytest.approx(0.0, abs=1e-14)
    assert tau == pytest.approx(1.0, abs=1e-14)
    assert psi == pytest.approx(2.0, abs=1e-14)


def test_m6_oracle_degenerate_when_means_equal():
    fam = GaussMixtureKnownK(K=2)
    t = MixtureParams(weights=[0.5, 0.5], means=[1.0, 1.0], variances=[1.0, 2.0])
    with pytest.raises(DegenerateOracleError):
        fam.oracle_hyperparameter(t)


def test_m5_oracle_degenerate_when_beta_zero():
    with pytest.raises(DegenerateOracleError):
        BayesLasso(sigma2=1.0).oracle_hyperparameter(np.zeros(3))


def test_m3_oracle_needs_enough_coefficients():
    fam = GPriorRegression(V=np.eye(2))
    with pytest.raises(DegenerateOracleError):
        fam.oracle_hyperparameter(GPriorParams(sigma=1.0, alpha=0.0, beta=[1.0, 2.0]))


def test_m7_oracle_is_boundary_zero():
    assert OverfittedMixture(K=2).oracle_hyperparameter(None) == 0.0


def test_m4_oracle_zero_probability_columns_hit_lower_edge():
    fam = MarkovDirichlet(K=2)
    P = np.array([[1.0, 0.0], [0.6, 0.4]])
    alpha = fam.oracle_hyperparameter(P)
    lo, hi = fam.BOX
    assert alpha[0, 1] == pytest.approx(lo, abs=1e-9)


def test_m4_dirichlet_row_log_density_concave_on_segments():
    # midpoint concavity along random segments inside the search box
    g = np.random.default_rng(10)
    fam = MarkovDirichlet(K=3)
    P = g.dirichlet(np.ones(3) * 2.0, size=3)
    lo, hi = fam.BOX
    for _ in range(10):
        a = g.uniform(lo, 10.0, size=(3, 3))
        b = g.uniform(lo, 10.0, size=(3, 3))
        mid = 0.5 * (a + b)
        fa, fb = fam.log_prior(P, a), fam.log_prior(P, b)
        fm = fam.log_prior(P, mid)
        assert fm >= 0.5 * (fa + fb) - 1e-9


# ---------------------------------------------------------------------------
# Fisher information


def test_m1_fisher():
    assert NormalMean(sigma2=2.0).fisher_information(0.0)[0, 0] == pytest.approx(0.5)


def test_m3_fisher_block_diagonal():
    V = np.array([[2.0, 0.1], [0.1, 1.5]])
    fam = GPriorRegression(V=V)
    t = GPriorParams(sigma=2.0, alpha=0.0, beta=[0.0, 0.0])
    I0 = fam.fisher_information(t)
    assert I0[0, 0] == pytest.approx(2.0 / 4.0)
    assert I0[1, 1] == pytest.approx(1.0 / 4.0)
    assert np.allclose(I0[2:, 2:], V / 4.0)
    assert np.allclose(I0 - np.diag(np.diag(I0)) - np.pad(V / 4.0 - np.diag(np.diag(V / 4.0)), ((2, 0), (2, 0))), 0.0)


def test_m5_fisher_matches_orthogonal_design_limit():
    v = np.array([4.0, 2.5])
    fam = BayesLasso(sigma2=2.0, V=np.diag(v))
    got = fam.fisher_information(RegressionParams(beta=[1.0, -1.0], sigma2=2.0))
    assert np.allclose(got, np.diag(v / 2.0))


def test_m6_fisher_is_symmetric_positive_definite():
    fam = GaussMixtureKnownK(K=2, omega=2.0)
    t = MixtureParams(weights=[0.4, 0.6], means=[-1.0, 1.5], variances=[1.0, 0.8])
    I0 = fam.fisher_information(t)
    assert np.allclose(I0, I0.T, atol=1e-10)
    assert np.all(np.linalg.eigvalsh(I0) > 0)


# ---------------------------------------------------------------------------
# posteriors


def test_m1_posterior_checkpoint():
    fam = NormalMean(sigma2=1.0)
    data = Dataset(y=np.full(30, 2.0))  # ybar = 2 exactly
    post = fam.posterior(4.0, data)
    assert post.mean == pytest.approx(2.0 * 120.0 / 121.0, abs=1e-12)
    assert post.var == pytest.approx(4.0 / 121.0, abs=1e-12)
    # quadrature normalization cross-check
    xs = np.linspace(post.mean - 8 * post.sd, post.mean + 8 * post.sd, 4001)
    assert np.trapezoid(post.pdf(xs), xs) == pytest.approx(1.0, abs=1e-6)


def test_m1_posterior_boundary_and_flat_limits():
    fam = NormalMean(sigma2=1.0)
    data = Dataset(y=np.full(10, 1.5))
    assert fam.posterior(0.0, data).location == 0.0
    flat = fam.posterior(math.inf, data)
    assert flat.mean == pytest.approx(1.5)
    assert flat.var == pytest.approx(0.1)


def test_m2_posterior_active_set():
    fam = IndepNormalRegression(sigma2=1.0)
    data = simulate(fam, RegressionParams(beta=[1.0, 0.0], sigma2=1.0), 60, 0)
    post = fam.posterior(np.array([2.0, 0.0]), data)
    assert isinstance(post[1], PointMassPosterior)
    assert post[0].mean == pytest.approx(1.0, abs=0.1)
    # against the dense precision form over the active columns
    X, beta, e = _regression_data(12, n=30, d=4)
    data = Dataset(y=X @ beta + e, X=X)
    fam = IndepNormalRegression(sigma2=0.8)
    tau2, a = np.array([1.5, 0.0, 0.3, 2.0]), [0, 2, 3]
    cov = np.linalg.inv(X[:, a].T @ X[:, a] / 0.8 + np.diag(1.0 / tau2[a]))
    mean = cov @ X[:, a].T @ data.y / 0.8
    post = fam.posterior(tau2, data)
    assert isinstance(post[1], PointMassPosterior)
    for k, j in enumerate(a):
        assert post[j].mean == pytest.approx(mean[k], rel=1e-12)
        assert post[j].var == pytest.approx(cov[k, k], rel=1e-12)


def test_m2_tau2_needs_one_entry_per_design_column():
    X, beta, e = _regression_data(13)
    data = Dataset(y=X @ beta + e, X=X)
    fam = IndepNormalRegression()
    # a short tau2 dropped design columns from the marginal and the KL, and a
    # long one ended in an IndexError
    for tau2 in (np.ones(2), np.ones(4)):
        for call in (lambda: fam.posterior(tau2, data),
                     lambda: fam.log_marginal(tau2, data),
                     lambda: fam.kl_exact(beta, tau2, 25, data)):
            with pytest.raises(DomainError, match="tau2 length"):
                call()


def test_m2_exact_kl_needs_n_to_be_the_design_row_count():
    X, beta, e = _regression_data(14, n=50)
    data = Dataset(y=X @ beta + e, X=X)
    fam = IndepNormalRegression()
    kl = fam.kl_exact(beta, np.ones(3), 50, data)
    assert math.isfinite(kl) and kl > 0
    for n in (10, 49, 51):
        with pytest.raises(DomainError):
            fam.kl_exact(beta, np.ones(3), n, data)
    with pytest.raises(DomainError):
        fam.kl_exact(beta, np.ones(3), 50)


def test_m3_posterior_with_one_residual_degree_of_freedom():
    # n = d + 2, the fewest rows the g-prior fit takes: a1 = (n - 1) / 2
    g = np.random.default_rng(15)
    X = g.normal(size=(5, 3))
    X -= X.mean(axis=0)
    data = Dataset(y=g.normal(size=5), X=X)
    post = GPriorRegression(V=np.eye(3)).posterior(2.0, data)
    assert post.a1 == 2.0 and post.a2 > 0
    for j in range(3):
        m = post.beta_marginal(j)
        assert np.all(np.isfinite(m.density))
        assert np.trapezoid(m.density, m.x) == pytest.approx(1.0, abs=1e-12)


def test_m4_posterior_adds_counts():
    fam = MarkovDirichlet(K=2)
    data = Dataset(counts=np.array([[3, 1], [2, 2]]))
    post = fam.posterior(np.ones((2, 2)), data)
    assert np.allclose(post.alpha, [[4, 2], [3, 3]])
    assert np.allclose(post.mean()[0], [4 / 6, 2 / 6])


def test_m5_coordinate_posterior_normalized_and_shrunk():
    fam = BayesLasso(sigma2=1.0)
    X = orthogonal_design(50, 2, seed=3, scale=1.0)
    beta0 = np.array([1.0, -0.5])
    y = X @ beta0 + np.random.default_rng(4).normal(size=50)
    data = Dataset(y=y, X=X)
    bhat = (X.T @ y) / np.sum(X**2, axis=0)
    for j in range(2):
        post = fam.coordinate_posterior(4.0, data, j)
        assert np.trapezoid(post.density, post.x) == pytest.approx(1.0, abs=1e-9)
        # Laplace prior shrinks the posterior mean toward zero
        assert abs(post.mean) < abs(bhat[j]) + 1e-12


def test_each_family_answers_log_marginal_or_raises_capability_error():
    g = np.random.default_rng(7)
    y = g.normal(size=12)
    X = g.normal(size=(12, 3))
    X -= X.mean(axis=0)
    lasso = Dataset(y=y, X=orthogonal_design(12, 3, seed=7))
    # (family, hyperparameter, small valid dataset)
    cases = [
        (NormalMean(), 1.0, Dataset(y=y)),
        (IndepNormalRegression(), [1.0, 0.5, 2.0], Dataset(y=y, X=X)),
        (GPriorRegression(V=np.eye(3)), 1.0, Dataset(y=y, X=X)),
        (MarkovDirichlet(K=2), np.ones((2, 2)), Dataset(counts=[[3, 1], [2, 2]])),
        (BayesLasso(sigma2=1.0), 1.0, lasso),
        (BayesLasso(sigma2=None), 1.0, lasso),
        (GaussMixtureKnownK(K=2), (0.0, 1.0, 1.0), Dataset(y=y)),
        (OverfittedMixture(K=2), 0.5, Dataset(y=y)),
    ]
    # a capability is the method: it answers with a finite float or raises
    answered = []
    for fam, lam, data in cases:
        try:
            val = log_marginal(fam, lam, data)
        except CapabilityError:
            continue
        assert isinstance(val, float) and math.isfinite(val), fam.id
        answered.append(fam)
    assert [f.id for f in answered] == ["M1", "M2", "M3", "M4", "M5"]
    # the LASSO marginal is closed-form with sigma2 known only
    assert answered[-1].sigma2 == 1.0
    # as does the closed-form MMLE, which M1 and M3 have
    closed = []
    for fam, _, data in cases:
        try:
            val = fam.closed_form_mmle(data)
        except CapabilityError:
            continue
        assert isinstance(val, float) and val >= 0.0, fam.id
        closed.append(fam.id)
    assert closed == ["M1", "M3"]
    with pytest.raises(CapabilityError):
        BayesLasso(sigma2=None).fisher_information(np.ones(3))


def test_each_family_defines_the_four_core_evaluators():
    # the base class has no stub for them: every family answers each one
    core = ("log_likelihood", "log_prior", "prior_gradient", "oracle_hyperparameter")
    families = (NormalMean, IndepNormalRegression, GPriorRegression, MarkovDirichlet,
                BayesLasso, GaussMixtureKnownK, OverfittedMixture)
    assert [(cls.__name__, name) for cls in families for name in core
            if name in vars(ModelFamily) or not callable(getattr(cls, name, None))] == []


def test_each_family_answers_posterior_or_raises_capability_error():
    # a posterior, like a marginal, is deterministic: the exact posterior
    # object, or CapabilityError where only a sampler can draw it
    g = np.random.default_rng(7)
    y = g.normal(size=12)
    X = g.normal(size=(12, 3))
    X -= X.mean(axis=0)
    lasso = Dataset(y=y, X=orthogonal_design(12, 3, seed=7))
    # (family, hyperparameter, small valid dataset, posterior type or None)
    cases = [
        (NormalMean(), 1.0, Dataset(y=y), GaussianPosterior),
        (IndepNormalRegression(), [1.0, 0.5, 2.0], Dataset(y=y, X=X), tuple),
        (GPriorRegression(V=np.eye(3)), 1.0, Dataset(y=y, X=X),
         NormalInverseGammaPosterior),
        (MarkovDirichlet(K=2), np.ones((2, 2)), Dataset(counts=[[3, 1], [2, 2]]),
         DirichletRowsPosterior),
        (BayesLasso(sigma2=1.0), 1.0, lasso, tuple),
        (BayesLasso(sigma2=None), 1.0, lasso, None),
        (BayesLasso(sigma2=1.0), 1.0, Dataset(y=y, X=X), None),  # non-orthogonal
        (GaussMixtureKnownK(K=2), (0.0, 1.0, 1.0), Dataset(y=y), None),
        (OverfittedMixture(K=2), 0.5, Dataset(y=y), None),
    ]
    for fam, lam, data, kind in cases:
        if kind is None:
            with pytest.raises(CapabilityError):
                fam.posterior(lam, data)
        else:
            assert isinstance(fam.posterior(lam, data), kind), fam.id


@pytest.mark.parametrize("n", [1, 2, 37, 300])
def test_normal_mean_log_likelihood_rowwise_equals_rows(n):
    fam = NormalMean(sigma2=1.7)
    g = np.random.default_rng(n)
    wide = g.normal(1.5, 2.0, size=(5, 2 * n))
    for y in (wide[:, :n], wide[:, ::2], np.asfortranarray(wide[:, :n])):
        assert Dataset(y=y).n == n
        got = fam.log_likelihood(1.2, Dataset(y=y))
        assert got.shape == (5,)
        for row, val in zip(y, got):
            one = fam.log_likelihood(1.2, Dataset(y=row))
            r = row - 1.2
            # the scalar-reduction form of the 1-d call
            want = float(-0.5 * n * math.log(2.0 * math.pi * 1.7)
                         - 0.5 * np.sum(r**2) / 1.7)
            assert type(one) is float
            assert one == val == want


def _rank_one_1d_reference(y, mean, sigma2, lam):
    # the scalar-reduction form every 1-d call must keep bit for bit
    r = np.asarray(y, dtype=float) - np.asarray(mean, dtype=float)
    n = r.size
    s = float(np.sum(r))
    quad = (float(r @ r) - lam * s * s / (sigma2 + n * lam)) / sigma2
    logdet = n * math.log(sigma2) + math.log1p(n * lam / sigma2)
    return -0.5 * (n * math.log(2.0 * math.pi) + logdet + quad)


@pytest.mark.parametrize("n", [1, 2, 37, 300])
def test_normal_mean_log_marginal_rowwise_equals_rows(n):
    fam = NormalMean(sigma2=1.7)
    g = np.random.default_rng(n)
    wide = g.normal(1.5, 2.0, size=(5, 2 * n))
    for y in (wide[:, :n], wide[:, ::2], np.asfortranarray(wide[:, :n])):
        got = fam.log_marginal(2.5, Dataset(y=y - 0.3))
        assert got.shape == (5,)
        for row, val in zip(y, got):
            one = fam.log_marginal(2.5, Dataset(y=row - 0.3))
            assert type(one) is float
            assert one == val == _rank_one_1d_reference(row, 0.3, 1.7, 2.5)

def test_only_normal_mean_evaluates_rowwise():
    fams = [NormalMean(), IndepNormalRegression(), GPriorRegression(V=np.eye(3)),
            MarkovDirichlet(K=2), BayesLasso(sigma2=1.0), GaussMixtureKnownK(K=2),
            OverfittedMixture(K=2)]
    rowwise = []
    for f in fams:
        try:
            f.simulate_rows(0.0, [], np.empty((0, 3)))
        except CapabilityError:
            continue
        rowwise.append(f.id)
    assert rowwise == ["M1"]


# ---------------------------------------------------------------------------
# array forms against the one-call-per-draw and per-coordinate references


def _random_transition(g, K, zeros):
    """A K x K transition matrix with ``zeros`` cells of row 0 set to 0."""
    P = g.dirichlet(np.ones(K), size=K)
    P[0, g.choice(K, size=zeros, replace=False)] = 0.0
    return P / P.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("K", [2, 3, 4])
def test_markov_simulate_equals_the_choice_path(K):
    # the path, the counts and the generator's next draw, for rows with
    # zero cells (down to a single positive cell) and the shipped transition
    g = np.random.default_rng(K)
    fam = MarkovDirichlet(K=K)
    mats = [_random_transition(g, K, z) for z in range(K)]
    if K == 3:
        mats.append(np.array([[0.7, 0.3, 0.0], [0.0, 0.4, 0.6], [0.5, 0.25, 0.25]]))
    for P in mats:
        for n in (0, 1, 2000):
            for seed in range(4):
                g1 = rngmod.stream(seed, "markov", K, n)
                g2 = rngmod.stream(seed, "markov", K, n)
                data = fam.simulate(P, n, g1, seed)
                path, counts = markov_path(P, n, g2)
                assert data.y.dtype == float and np.array_equal(data.y, path)
                assert data.counts.dtype == np.int64 and np.array_equal(data.counts, counts)
                assert g1.random() == g2.random()


def test_lasso_log_marginal_equals_the_per_coordinate_form():
    # orthogonal designs of several scales and sizes; large coefficients put
    # |u| far beyond 10, where log_ndtr is in its tail, and the rates span
    # six decades
    g = np.random.default_rng(5)
    lams = np.geomspace(1e-3, 1e3, 25).tolist()
    for n, d, scale, sigma2 in [(40, 15, 1.0, 1.0), (300, 15, 0.3, 2.5),
                                (20, 3, 4.0, 0.2), (7, 7, 1.0, 1.0)]:
        fam = BayesLasso(sigma2=sigma2)
        X = orthogonal_design(n, d, (n, d, "lasso-oracle"), scale=scale)
        beta = g.normal(0.0, 3.0, size=d) * (g.random(d) < 0.6)
        y = X @ beta + g.normal(0.0, math.sqrt(sigma2), size=n)
        data = Dataset(y=y, X=X)
        u = np.sqrt(np.diag(X.T @ X)) * (X.T @ y) / np.diag(X.T @ X) / math.sqrt(sigma2)
        assert np.max(np.abs(u)) > 10  # the tail of log_ndtr
        for lam in lams:
            got = fam.log_marginal(lam, data)
            assert type(got) is float
            assert got == lasso_log_marginal(lam, sigma2, X, y), (n, d, lam)


@pytest.mark.parametrize("sigma2,theta0", [(1.0, 0.0), (2.5, -1.7), (0.3, -0.05), (4.0, 3.2)])
def test_normal_mean_simulate_rows_equals_one_normal_call_per_row(sigma2, theta0):
    fam = NormalMean(sigma2=sigma2)
    for rows, n in [(1, 0), (3, 0), (1, 1), (5, 1), (6, 137)]:
        gens = rngmod.streams((rows, n), range(rows), ("data",))
        ref_gens = rngmod.streams((rows, n), range(rows), ("data",))
        out = np.empty((rows, n))
        assert fam.simulate_rows(theta0, gens, out) is out
        assert np.array_equal(out, normal_mean_rows(theta0, sigma2, ref_gens, n))
        assert [g.random() for g in gens] == [g.random() for g in ref_gens]
        # the one-row case
        g1, g2 = rngmod.stream(rows, n, "one"), rngmod.stream(rows, n, "one")
        assert np.array_equal(fam.simulate(theta0, n, g1, None).y,
                              normal_mean_rows(theta0, sigma2, [g2], n)[0])
        assert g1.random() == g2.random()


def test_m1_refuses_to_pool_the_rows_of_a_2d_y():
    # a 2-d y holds one dataset per row: the row-wise evaluators answer per
    # row, and the pooled statistics of the six values are refused
    fam = NormalMean()
    data = Dataset(y=[[1.0, 2.0, 3.0], [10.0, 11.0, 12.0]])
    for call in (fam.mle, fam.closed_form_mmle, fam.pseudo_hyperparameter,
                 lambda d: fam.posterior(1.0, d), lambda d: fam.posterior(math.inf, d)):
        with pytest.raises(DomainError):
            call(data)
    assert fam.log_marginal(1.0, data).shape == (2,)
    assert fam.log_likelihood(0.0, data).shape == (2,)
    assert fam.mle(Dataset(y=[1.0, 2.0, 3.0])) == 2.0


def _nonfinite_calls(family_id, bad):
    """Calls of one family's evaluators, each with one entry of a
    hyperparameter or a parameter point set to ``bad``."""
    g = np.random.default_rng(5)
    X = g.normal(size=(20, 3))
    X -= X.mean(axis=0)
    reg = Dataset(y=g.normal(size=20), X=X)
    y = Dataset(y=[0.3, -1.2, 2.0])

    def mixture(w=0.5, m=1.0, v=1.0):
        return MixtureParams(weights=[w, 0.5], means=[-1.0, m], variances=[1.0, v])

    if family_id == "M1":
        f = NormalMean()
        return [lambda: f.log_marginal(bad, y), lambda: f.log_prior(0.5, bad),
                lambda: f.kl_exact(2.0, bad, 10), lambda: mmle_grid(f, y, [bad, 1.0])]
    if family_id == "M2":
        f = IndepNormalRegression()
        return [lambda: f.log_marginal([bad, 1.0, 1.0], reg),
                lambda: f.log_prior([0.5, 0.5], [1.0, bad]),
                lambda: f.log_likelihood(RegressionParams(beta=[bad, 0.0, 0.0]), reg),
                lambda: RegressionParams(beta=[0.0], sigma2=bad)]
    if family_id == "M3":
        f = GPriorRegression(V=np.eye(3))
        return [lambda: f.log_marginal(bad, reg),
                lambda: GPriorParams(sigma=bad, alpha=0.0, beta=[0.0, 0.0, 0.0]),
                lambda: GPriorParams(sigma=1.0, alpha=bad, beta=[0.0, 0.0, 0.0]),
                lambda: GPriorParams(sigma=1.0, alpha=0.0, beta=[0.0, bad, 0.0])]
    if family_id == "M4":
        f = MarkovDirichlet(K=2)
        counts = Dataset(counts=[[3, 1], [2, 2]])
        return [lambda: f.log_marginal([[1.0, bad], [1.0, 1.0]], counts),
                lambda: f.log_likelihood([[0.5, 0.5], [bad, 0.5]], counts),
                lambda: f.log_prior([[0.5, 0.5], [0.5, bad]], np.ones((2, 2)))]
    if family_id == "M5":
        f = BayesLasso(sigma2=1.0)
        lasso = Dataset(y=g.normal(size=20), X=orthogonal_design(20, 2, seed=1))
        return [lambda: f.log_marginal(bad, lasso), lambda: f.log_prior([0.1, 0.2], bad),
                lambda: f.log_likelihood(RegressionParams(beta=[0.1, bad]), lasso)]
    if family_id == "M6":
        f = GaussMixtureKnownK(K=2)
        return [lambda: f.log_prior(mixture(), (bad, 1.0, 1.0)),
                lambda: f.log_prior(mixture(), (0.0, bad, 1.0)),
                lambda: f.log_prior(mixture(), (0.0, 1.0, bad)),
                lambda: f.log_likelihood(mixture(w=bad), y),
                lambda: f.log_likelihood(mixture(m=bad), y),
                lambda: f.log_likelihood(mixture(v=bad), y)]
    f = OverfittedMixture(K=2)
    return [lambda: f.log_prior(mixture(), bad), lambda: mixture_marginal_exact(y, [bad], f),
            lambda: f.log_likelihood(mixture(w=bad), y),
            lambda: f.log_likelihood(mixture(m=bad), y)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("family_id", ["M1", "M2", "M3", "M4", "M5", "M6", "M7"])
def test_non_finite_hyperparameters_and_parameter_points_raise_domain_error(family_id, bad):
    for call in _nonfinite_calls(family_id, bad):
        with pytest.raises(DomainError):
            call()
    # M1's flat-prior limit stays the posterior at lam = inf
    if family_id == "M1" and bad == math.inf:
        assert isinstance(NormalMean().posterior(bad, Dataset(y=[1.0, 2.0])), GaussianPosterior)

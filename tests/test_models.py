import math

import numpy as np
import pytest
from scipy.stats import dirichlet as sp_dirichlet
from scipy.stats import invgamma, norm

from ebib.errors import (
    CapabilityError,
    DegenerateOracleError,
    DomainError,
    NonDifferentiableError,
)
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
    load_counts_csv,
    load_dataset_csv,
)
from ebib.marginal import log_marginal
from ebib.posteriors import PointMassPosterior
from ebib.samplers import orthogonal_design, simulate
from helpers import finite_diff_gradient

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


# ---------------------------------------------------------------------------
# log-likelihood and log-prior checkpoints


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


def test_m4_loglik_zero_counts_and_impossible_transition():
    fam = MarkovDirichlet(K=2)
    P = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert fam.log_likelihood(P, Dataset(counts=np.zeros((2, 2)))) == 0.0
    assert fam.log_likelihood(P, Dataset(counts=[[0, 0], [0, 1]])) == -math.inf


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


def test_m3_gradient_matches_finite_differences():
    g = np.random.default_rng(6)
    V = np.array([[2.0, 0.3], [0.3, 1.0]])
    fam = GPriorRegression(V=V)
    for _ in range(20):
        theta = GPriorParams(sigma=float(g.uniform(0.5, 2.0)),
                             alpha=float(g.normal()), beta=g.normal(size=2))
        lam = float(g.uniform(0.5, 5.0))
        fd = finite_diff_gradient(
            lambda v: fam.log_prior(GPriorParams.from_vector(v), lam),
            theta.as_vector(),
        )
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
    alpha = fam.oracle_hyperparameter(P, seed=0)
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
    assert isinstance(post.marginal(1), PointMassPosterior)
    assert post.marginal(0).mean == pytest.approx(1.0, abs=0.1)


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
    with pytest.raises(CapabilityError):
        BayesLasso(sigma2=None).fisher_information(np.ones(3))


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


def test_only_normal_mean_evaluates_rowwise():
    fams = [NormalMean(), IndepNormalRegression(), GPriorRegression(V=np.eye(3)),
            MarkovDirichlet(K=2), BayesLasso(sigma2=1.0), GaussMixtureKnownK(K=2),
            OverfittedMixture(K=2)]
    assert [f.id for f in fams if f.rowwise_eval] == ["M1"]

import math

import numpy as np
import pytest

from ebib.errors import DomainError
from ebib.merging import (
    MergingReport,
    _support_interval,
    credible_discrepancy,
    delta_theta0,
    l1_distance,
    l1_distance_mc,
    l1_gaussian_equal_var,
    predicted_l1_posterior,
    predicted_l1_predictive,
)
from ebib.models import (
    Dataset,
    GPriorParams,
    GPriorRegression,
    GaussMixtureKnownK,
    MixtureParams,
    NormalMean,
)
from ebib.numerics import QUAD_MAX_DEPTH
from ebib.posteriors import GaussianPosterior, PointMassPosterior
from ebib.samplers import simulate
from helpers import recursive_simpson


def test_delta_theta0_m1_checkpoint():
    fam = NormalMean(sigma2=1.0)
    assert delta_theta0(fam, 2.0, 1.0, 4.0)[0] == pytest.approx(-1.5, abs=1e-12)


def test_delta_theta0_equal_lambdas_is_zero():
    fam = NormalMean(sigma2=1.0)
    assert np.allclose(delta_theta0(fam, 2.0, 3.0, 3.0), 0.0)


def test_predicted_l1_posterior_m1_checkpoint():
    fam = NormalMean(sigma2=1.0)
    got = predicted_l1_posterior(fam, 2.0, 1.0, 4.0, 800)
    want = math.sqrt(2.0 / math.pi) * 1.5 / math.sqrt(800)
    assert got == pytest.approx(want, abs=1e-10)
    assert got == pytest.approx(0.04231, abs=5e-5)


def test_predicted_l1_posterior_equal_lambdas_zero():
    fam = NormalMean(sigma2=1.0)
    assert predicted_l1_posterior(fam, 2.0, 3.0, 3.0, 100) == 0.0


def test_m3_delta_quadform_matches_closed_identity():
    # two independent formula paths for Delta^t I0^{-1} Delta
    V = np.array([[2.0, 0.4], [0.4, 1.5]])
    g = np.random.default_rng(1)
    fam = GPriorRegression(V=V)
    for _ in range(10):
        beta0 = g.normal(size=2)
        s0 = float(g.uniform(0.5, 2.0))
        theta0 = GPriorParams(sigma=s0, alpha=0.3, beta=beta0)
        g1, g2 = g.uniform(0.5, 5.0, size=2)
        delta = delta_theta0(fam, theta0, g1, g2)
        I0 = fam.fisher_information(theta0)
        direct = float(delta @ np.linalg.solve(I0, delta))
        q = float(beta0 @ V @ beta0) / s0**2
        closed = (1.0 / g1 - 1.0 / g2) ** 2 * q * (q / 2.0 + 1.0)
        assert direct == pytest.approx(closed, abs=1e-10 * max(1.0, closed))


def test_l1_gaussian_closed_form_checkpoint():
    # single-crossing identity: 2 * (2 * Phi(1/2) - 1)
    got = l1_gaussian_equal_var(0.0, 1.0, 1.0)
    assert got == pytest.approx(0.7658498, abs=5e-7)
    quad = l1_distance(GaussianPosterior(0.0, 1.0), GaussianPosterior(1.0, 1.0))
    assert quad == pytest.approx(got, abs=1e-7)


@pytest.mark.xfail(strict=True, reason="adaptive Simpson converges falsely on the "
                   "first coarse panels when two posteriors nearly coincide")
def test_l1_distance_of_nearly_equal_posteriors_matches_a_dense_trapezoid():
    # the predictive-rates pair at seed_base 0, n = 800, seed 0: Simpson
    # returns 2.69e-9, a 2,000,001-point trapezoid 4.913e-6
    p = GaussianPosterior(2.0095763556036426, 1.0012496133284021)
    q = GaussianPosterior(2.00957019415323, 1.0012496094970322)
    x = np.linspace(p.mean - 10.0 * p.sd, p.mean + 10.0 * p.sd, 2_000_001)
    dense = float(np.trapezoid(np.abs(p.pdf(x) - q.pdf(x)), x))
    assert dense == pytest.approx(4.913e-6, rel=1e-3)
    assert l1_distance(p, q) == pytest.approx(dense, rel=1e-3)


def _recursive_l1(p, q):
    """l1_distance's integral by the recursive Simpson rule, one abscissa per
    call, and the number of abscissae it evaluates."""
    evals = []

    def f(x):
        evals.append(x)
        return abs(p.pdf(x) - q.pdf(x))

    return float(recursive_simpson(f, *_support_interval(p, q))), len(evals)


def _shipped_pairs(seed_base, n, seeds):
    """The posterior pairs of merging-rates (lam_pair 1, 4 and EB against
    oracle) and the predictive pairs of predictive-rates, as the shipped
    configs (theta0 2, sigma2 1) build them."""
    fam = NormalMean(sigma2=1.0)
    lam_star = fam.oracle_hyperparameter(2.0)
    for s in range(seeds):
        data = simulate(fam, 2.0, n, (seed_base, "merge", n, s))
        lam_hat = fam.closed_form_mmle(data)
        yield fam.posterior(1.0, data), fam.posterior(4.0, data)
        yield fam.posterior(lam_hat, data), fam.posterior(lam_star, data)
        data = simulate(fam, 2.0, n, (seed_base, "pred", n, s))
        lam_hat = fam.closed_form_mmle(data)
        p, q = (fam.posterior(lam, data) for lam in (lam_hat, lam_star))
        yield (GaussianPosterior(p.mean, p.var + 1.0),
               GaussianPosterior(q.mean, q.var + 1.0))


@pytest.mark.parametrize("seed_base", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [50, 200, 800])
def test_l1_distance_equals_the_recursive_rule_on_shipped_pairs(seed_base, n):
    for p, q in _shipped_pairs(seed_base, n, seeds=3):
        assert l1_distance(p, q) == _recursive_l1(p, q)[0]


def test_l1_distance_equals_the_recursive_rule_on_the_false_convergence_pair():
    p = GaussianPosterior(2.0095763556036426, 1.0012496133284021)
    q = GaussianPosterior(2.00957019415323, 1.0012496094970322)
    got = l1_distance(p, q)
    assert got == _recursive_l1(p, q)[0]
    assert got == pytest.approx(2.69e-9, rel=1e-2)


def test_l1_distance_calls_the_integrand_once_per_bisection_level():
    # one call for the endpoints and the midpoint, then one per bisection
    # level (at most QUAD_MAX_DEPTH + 1), not one per abscissa: a pdf call's
    # fixed cost is larger than its arithmetic on a whole level
    for p, q in [(GaussianPosterior(0.0, 1.0), GaussianPosterior(0.8, 1.5)),
                 *_shipped_pairs(0, 800, seeds=1)]:
        sizes = []

        def count_pdf(x, pdf=p.pdf):
            sizes.append(np.size(x))
            return pdf(x)

        p.pdf = count_pdf
        l1_distance(p, q)
        del p.pdf
        assert len(sizes) <= QUAD_MAX_DEPTH + 2
        assert sum(sizes) == _recursive_l1(p, q)[1]


def test_l1_identical_posteriors_zero():
    p = GaussianPosterior(0.3, 2.0)
    assert l1_distance(p, GaussianPosterior(0.3, 2.0)) == pytest.approx(0.0, abs=1e-9)


def test_l1_point_mass_cases():
    assert l1_distance(PointMassPosterior(1.0), PointMassPosterior(1.0)) == 0.0
    assert l1_distance(PointMassPosterior(1.0), PointMassPosterior(2.0)) == 2.0
    assert l1_distance(PointMassPosterior(1.0), GaussianPosterior(1.0, 1.0)) == 2.0


def test_l1_bounds_and_triangle_inequality():
    g = np.random.default_rng(2)
    for _ in range(10):
        ps = [GaussianPosterior(g.normal(), float(g.uniform(0.5, 2.0)))
              for _ in range(3)]
        d01 = l1_distance(ps[0], ps[1])
        d12 = l1_distance(ps[1], ps[2])
        d02 = l1_distance(ps[0], ps[2])
        assert 0.0 <= d02 <= 2.0
        assert d02 <= d01 + d12 + 1e-9


def test_l1_monte_carlo_agrees_with_quadrature():
    p = GaussianPosterior(0.0, 1.0)
    q = GaussianPosterior(0.8, 1.5)
    exact = l1_distance(p, q)
    mc = l1_distance_mc(p, q, draws=200000, seed=5)
    assert mc == pytest.approx(exact, abs=0.01)


def test_predicted_l1_predictive_m1_closed_value():
    fam = NormalMean(sigma2=2.0)
    n, lam1, lam2, t0 = 300, 1.0, 4.0, 2.0
    got = predicted_l1_predictive(fam, t0, lam1, lam2, n)
    delta = abs(delta_theta0(fam, t0, lam1, lam2)[0])
    want = math.sqrt(2.0) * math.sqrt(2.0 / math.pi) * delta / n
    assert got == pytest.approx(want, abs=1e-9)
    # positivity for distinct lambdas at theta0 != 0
    assert got > 0


def test_predicted_l1_predictive_m6_positive():
    fam = GaussMixtureKnownK(K=2, omega=2.0)
    t = MixtureParams(weights=[0.4, 0.6], means=[-1.0, 1.2], variances=[1.0, 0.8])
    v = predicted_l1_predictive(fam, t, (0.0, 1.0, 2.0), (0.5, 2.0, 1.0), 200)
    assert v > 0


def test_credible_discrepancy_zero_when_lambdas_match():
    fam = NormalMean(sigma2=1.0)
    data = simulate(fam, 2.0, 50, 3)
    assert credible_discrepancy(fam, data, 4.0, 4.0, 0.1) == pytest.approx(
        0.0, abs=1e-9
    )


def test_credible_discrepancy_alpha_validation():
    fam = NormalMean(sigma2=1.0)
    data = simulate(fam, 2.0, 10, 0)
    with pytest.raises(DomainError):
        credible_discrepancy(fam, data, 4.0, 4.0, 0.0)


def test_merging_report_csv_contract(tmp_path):
    rep = MergingReport()
    rep.add(50, 0, 1.0, 4.0, 0.3, 0.28, cred_disc=-0.01)
    rep.add(200, 1, 1.0, 4.0, 0.15, 0.14)
    with pytest.raises(DomainError):
        rep.add(50, 0, 1.0, 4.0, 2.5, 0.1)
    path = tmp_path / "rep.csv"
    rep.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,seed,lambda1,lambda2,l1_exact,l1_pred,cred_disc"
    assert len(lines) == 3

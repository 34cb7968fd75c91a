import math

import numpy as np
import pytest

from ebib.errors import DomainError, InsufficientDataError
from ebib.marginal import log_marginal
from ebib.mmle import (
    MmleResult,
    RestrictedDomain,
    lasso_mmle_em,
    mmle_continuous,
    mmle_grid,
)
from ebib.models import (
    BayesLasso,
    Dataset,
    GPriorParams,
    GPriorRegression,
    MarkovDirichlet,
    NormalMean,
    RegressionParams,
)
from ebib.samplers import GibbsConfig, orthogonal_design, simulate


def test_restricted_domain_invariants():
    with pytest.raises(DomainError):
        RestrictedDomain(box=((2.0, 1.0),))
    with pytest.raises(DomainError):
        RestrictedDomain()


def test_m1_grid_mmle_near_analytic_stationary_point():
    fam = NormalMean(sigma2=1.0)
    data = Dataset(y=np.full(30, 2.0))  # ybar = 2: argmax at 4 - 1/30
    grid = tuple(np.linspace(3.0, 5.0, 2001))  # step 1e-3
    res = mmle_grid(fam, data, RestrictedDomain(grid=grid))
    assert res.lam == pytest.approx(2.0**2 - 1.0 / 30.0, abs=1e-3)
    assert res.converged and not any(res.at_boundary)


def test_grid_tie_breaks_toward_smaller_lambda():
    fam = MarkovDirichlet(K=2)
    data = Dataset(counts=np.zeros((2, 2)))  # marginal is 0 for every alpha
    grid = (np.full((2, 2), 2.0), np.full((2, 2), 1.0))
    res = mmle_grid(fam, data, RestrictedDomain(grid=grid))
    assert np.all(np.asarray(res.lam) == 1.0)


def test_mmle_grid_dominates_random_points():
    fam = NormalMean(sigma2=1.0)
    data = simulate(fam, 2.0, 50, 3)
    grid = tuple(np.geomspace(0.1, 30.0, 200))
    res = mmle_grid(fam, data, RestrictedDomain(grid=grid))
    g = np.random.default_rng(4)
    for lam in g.choice(grid, size=50):
        assert res.objective >= log_marginal(fam, float(lam), data) - 1e-12


def test_single_point_domain_returned_converged():
    fam = NormalMean(sigma2=1.0)
    data = simulate(fam, 2.0, 20, 1)
    res = mmle_continuous(fam, data, RestrictedDomain(box=((2.5, 2.5),)))
    assert res.lam == 2.5 and res.converged and res.at_boundary == (True,)


def test_m1_continuous_matches_closed_form():
    fam = NormalMean(sigma2=1.0)
    for seed in range(5):
        data = simulate(fam, 2.0, 40, seed)
        res = mmle_continuous(fam, data, RestrictedDomain(box=((1e-8, 50.0),)),
                              tol=1e-10)
        closed = fam.closed_form_mmle(data)
        assert res.lam == pytest.approx(closed, abs=1e-6)


def test_m1_closed_form_mmle_truncates_at_zero():
    data = Dataset(y=np.array([0.05, -0.05, 0.0, 0.0]))  # ybar = 0
    assert NormalMean(sigma2=1.0).closed_form_mmle(data) == 0.0


def test_m1_zero_mean_boundary_flagged():
    fam = NormalMean(sigma2=1.0)
    data = Dataset(y=np.array([0.05, -0.05, 0.0, 0.0]))
    res = mmle_continuous(fam, data, RestrictedDomain(box=((0.0, 10.0),)),
                          tol=1e-9)
    assert res.lam == 0.0 and res.at_boundary == (True,)


def test_gprior_continuous_matches_closed_form_20_datasets():
    V = np.eye(4) * (100.0 / 3.0)
    fam = GPriorRegression(V=V)
    hit_zero = 0
    for seed in range(20):
        g = np.random.default_rng(seed)
        # alternate informative and pure-noise responses to hit the truncation
        if seed % 4 == 0:
            beta = np.zeros(4)
        else:
            beta = g.normal(0.0, 0.3, size=4)
        theta0 = GPriorParams(sigma=1.0, alpha=0.5, beta=beta)
        data = simulate(fam, theta0, 60, seed)
        closed = fam.closed_form_mmle(data)
        res = mmle_continuous(fam, data, RestrictedDomain(box=((0.0, 100.0),)),
                              tol=1e-9)
        assert res.lam == pytest.approx(closed, abs=1e-6)
        hit_zero += closed == 0.0
    assert hit_zero >= 1  # the truncation branch must be exercised


def test_gprior_closed_form_needs_enough_rows():
    fam = GPriorRegression(V=np.eye(3))
    X = np.zeros((3, 3))
    with pytest.raises(InsufficientDataError):
        fam.closed_form_mmle(Dataset(y=np.zeros(3), X=X))


def test_mmle_continuous_searches_one_interval_outside_m4():
    fam = NormalMean(sigma2=1.0)
    data = Dataset(y=np.full(10, 2.0))
    with pytest.raises(DomainError, match="one interval"):
        mmle_continuous(fam, data, RestrictedDomain(box=((0.1, 5.0), (0.1, 5.0))))


def test_m4_mmle_zero_count_cells_hit_lower_edge():
    fam = MarkovDirichlet(K=2)
    data = Dataset(counts=np.array([[5, 0], [3, 4]]))
    res = mmle_continuous(fam, data,
                          RestrictedDomain(box=(fam.BOX,)), seed=0)
    alpha = np.asarray(res.lam)
    assert alpha[0, 1] == fam.BOX[0]
    assert res.at_boundary[1]


def test_pseudo_mmle_m1_checkpoint():
    fam = NormalMean(sigma2=1.0)
    data = Dataset(y=np.full(12, 2.0))
    assert fam.pseudo_hyperparameter(data) == pytest.approx(4.0, abs=1e-12)


def test_lasso_em_matches_grid_mmle_d1():
    # d = 1, orthogonal design, known sigma: EM fixed point vs grid argmax of
    # the closed-form marginal
    fam = BayesLasso(sigma2=1.0)
    X = orthogonal_design(150, 1, seed=21, scale=1.0)
    g = np.random.default_rng(22)
    y = X[:, 0] * 0.8 + g.normal(size=150)
    data = Dataset(y=y, X=X)
    grid = tuple(np.geomspace(0.05, 30.0, 1200))
    grid_lam = mmle_grid(fam, data, RestrictedDomain(grid=grid)).lam
    em = lasso_mmle_em(data, init_lam=1.0,
                       gibbs_cfg=GibbsConfig(iters=4000, burnin=1000, seed=5),
                       em_steps=40, sigma2=1.0)
    assert em.lam == pytest.approx(grid_lam, abs=0.05)


def test_lasso_em_rejects_bad_init():
    data = Dataset(y=np.zeros(4), X=np.eye(4))
    with pytest.raises(DomainError):
        lasso_mmle_em(data, init_lam=0.0, gibbs_cfg=GibbsConfig())


def test_mmle_result_objective_consistent():
    fam = NormalMean(sigma2=1.0)
    data = simulate(fam, 2.0, 30, 9)
    res = mmle_continuous(fam, data, RestrictedDomain(box=((1e-6, 40.0),)))
    assert res.objective == pytest.approx(
        log_marginal(fam, res.lam, data), abs=1e-9
    )

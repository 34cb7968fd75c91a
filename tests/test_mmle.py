import json
import math
from pathlib import Path

import numpy as np
import pytest

from ebib import marginal
from ebib import mmle as mmlemod
from ebib.errors import DomainError, InsufficientDataError
from ebib.marginal import log_marginal
from ebib.mmle import (
    MmleResult,
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
from ebib.samplers import ChainOutput, GibbsConfig, orthogonal_design, simulate


def test_restricted_domain_invariants():
    # the restricted set is an interval lo <= hi or a nonempty grid
    fam = NormalMean(sigma2=1.0)
    data = Dataset(y=np.full(10, 2.0))
    with pytest.raises(DomainError, match="lo <= hi"):
        mmle_continuous(fam, data, 2.0, 1.0)
    with pytest.raises(DomainError, match="nonempty grid"):
        mmle_grid(fam, data, ())


def test_mmle_continuous_searches_one_interval_outside_m4():
    fam = NormalMean(sigma2=1.0)
    data = Dataset(y=np.full(10, 2.0))
    res = mmle_continuous(fam, data, 0.1, 5.0)
    assert isinstance(res.lam, float) and 0.1 <= res.lam <= 5.0
    assert len(res.at_boundary) == 1
    # M4 takes the same one interval for every cell (run on *BOX below)
    with pytest.raises(DomainError, match="lo <= hi"):
        mmle_continuous(MarkovDirichlet(K=2), Dataset(counts=np.eye(2)), 2.0, 1.0)


def test_m1_grid_mmle_near_analytic_stationary_point():
    fam = NormalMean(sigma2=1.0)
    data = Dataset(y=np.full(30, 2.0))  # ybar = 2: argmax at 4 - 1/30
    grid = tuple(np.linspace(3.0, 5.0, 2001))  # step 1e-3
    res = mmle_grid(fam, data, grid)
    assert res.lam == pytest.approx(2.0**2 - 1.0 / 30.0, abs=1e-3)
    assert res.converged and not any(res.at_boundary)


def test_grid_tie_breaks_toward_smaller_lambda():
    fam = MarkovDirichlet(K=2)
    data = Dataset(counts=np.zeros((2, 2)))  # marginal is 0 for every alpha
    grid = (np.full((2, 2), 2.0), np.full((2, 2), 1.0))
    res = mmle_grid(fam, data, grid)
    assert np.all(np.asarray(res.lam) == 1.0)


def test_mmle_grid_dominates_random_points():
    fam = NormalMean(sigma2=1.0)
    data = simulate(fam, 2.0, 50, 3)
    grid = tuple(np.geomspace(0.1, 30.0, 200))
    res = mmle_grid(fam, data, grid)
    g = np.random.default_rng(4)
    for lam in g.choice(grid, size=50):
        assert res.objective >= log_marginal(fam, float(lam), data) - 1e-12


def test_single_point_domain_returned_converged():
    fam = NormalMean(sigma2=1.0)
    data = simulate(fam, 2.0, 20, 1)
    res = mmle_continuous(fam, data, 2.5, 2.5)
    assert res.lam == 2.5 and res.converged and res.at_boundary == (True,)


def test_m1_continuous_matches_closed_form():
    fam = NormalMean(sigma2=1.0)
    for seed in range(5):
        data = simulate(fam, 2.0, 40, seed)
        res = mmle_continuous(fam, data, 1e-8, 50.0, tol=1e-10)
        closed = fam.closed_form_mmle(data)
        assert res.lam == pytest.approx(closed, abs=1e-6)


def test_m1_closed_form_mmle_truncates_at_zero():
    data = Dataset(y=np.array([0.05, -0.05, 0.0, 0.0]))  # ybar = 0
    assert NormalMean(sigma2=1.0).closed_form_mmle(data) == 0.0


def test_m1_zero_mean_boundary_flagged():
    fam = NormalMean(sigma2=1.0)
    data = Dataset(y=np.array([0.05, -0.05, 0.0, 0.0]))
    res = mmle_continuous(fam, data, 0.0, 10.0, tol=1e-9)
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
        res = mmle_continuous(fam, data, 0.0, 100.0, tol=1e-9)
        assert res.lam == pytest.approx(closed, abs=1e-6)
        hit_zero += closed == 0.0
    assert hit_zero >= 1  # the truncation branch must be exercised


def test_gprior_closed_form_needs_enough_rows():
    fam = GPriorRegression(V=np.eye(3))
    X = np.zeros((3, 3))
    with pytest.raises(InsufficientDataError):
        fam.closed_form_mmle(Dataset(y=np.zeros(3), X=X))
    # n = d + 1 leaves no residual degree of freedom: SSE is 0, so the MLE's
    # sigma was 1e-16 and the plug-in g 1e31, and every evaluator refuses it
    g = np.random.default_rng(5)
    X = g.normal(size=(4, 3))
    data = Dataset(y=g.normal(size=4), X=X - X.mean(axis=0))
    for call in (fam.mle, fam.pseudo_hyperparameter, fam.closed_form_mmle,
                 lambda d: fam.log_marginal(1.0, d), lambda d: fam.posterior(1.0, d)):
        with pytest.raises(InsufficientDataError):
            call(data)


def test_m4_counts_must_be_k_by_k():
    # 3 x 3 counts for a two-state chain: the marginal and the MMLE read the
    # top-left block and the posterior failed to broadcast
    fam = MarkovDirichlet(K=2)
    data = Dataset(counts=np.array([[3, 1, 2], [2, 2, 0], [1, 1, 1]]))
    for call in (lambda: fam.log_likelihood(np.full((2, 2), 0.5), data),
                 lambda: fam.log_marginal(np.ones((2, 2)), data),
                 lambda: fam.posterior(np.ones((2, 2)), data),
                 lambda: mmle_continuous(fam, data, *fam.BOX)):
        with pytest.raises(DomainError, match="K x K"):
            call()


def test_m4_mmle_zero_count_cells_hit_lower_edge():
    fam = MarkovDirichlet(K=2)
    data = Dataset(counts=np.array([[5, 0], [3, 4]]))
    res = mmle_continuous(fam, data, *fam.BOX, seed=0)
    alpha = np.asarray(res.lam)
    assert alpha[0, 1] == fam.BOX[0]
    assert res.at_boundary[1]


# The M4 row search on the shipped markov-sparsity config at seed bases 0-3,
# as recorded with scipy's Nelder-Mead: its iterations, its convergence, its
# evaluations of the row marginal (plus the final objective) and alpha-hat
SHIPPED_M4 = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "markov-sparsity.json").read_text())


@pytest.mark.parametrize("seed_base,iterations,calls,alpha_hat", [
    (0, 2131, 4393, [[50.0, 24.688659822797028, 0.001],
                     [0.001, 31.732830306174726, 50.0],
                     [50.0, 24.437079230065343, 25.185232668285906]]),
    (1, 2232, 4568, [[50.0, 23.84287366993525, 0.001],
                     [0.001, 30.722381669863616, 50.0],
                     [50.0, 26.02995183827661, 21.49054504668629]]),
    (2, 2211, 4500, [[50.0, 21.536837078294063, 0.001],
                     [0.001, 34.56612264117602, 50.0],
                     [50.0, 28.80098102585069, 26.968310256650188]]),
    (3, 2169, 4437, [[50.0, 24.064256326881605, 0.001],
                     [0.001, 35.08429229748326, 50.0],
                     [50.0, 24.114248463001168, 27.378537043135324]]),
])
def test_m4_mmle_search_on_the_shipped_config_is_pinned(monkeypatch, seed_base,
                                                        iterations, calls, alpha_hat):
    fam = MarkovDirichlet(K=3)
    data = simulate(fam, np.asarray(SHIPPED_M4["transition"], dtype=float),
                    SHIPPED_M4["n"], (seed_base, "markov"))
    seen = []
    original = marginal.markov_log_marginal
    monkeypatch.setattr(marginal, "markov_log_marginal",
                        lambda *args: seen.append(args) or original(*args))
    res = mmle_continuous(fam, data, *fam.BOX, seed=seed_base)
    assert (res.iterations, res.converged, len(seen)) == (iterations, True, calls)
    assert np.asarray(res.lam).tolist() == alpha_hat


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
    grid_lam = mmle_grid(fam, data, grid).lam
    em = lasso_mmle_em(data, init_lam=1.0,
                       gibbs_cfg=GibbsConfig(iters=4000, burnin=1000, seed=5),
                       em_steps=40, sigma2=1.0)
    assert em.lam == pytest.approx(grid_lam, abs=0.05)


def test_lasso_em_stops_after_three_calm_steps(monkeypatch):
    # the M-step maps the mean tau2 draws to sqrt(2 d / sum_j E[tau2_j]), so
    # draws of mean 2 / lam^2 in every coordinate move the rate to lam: one
    # relative move of 1.1e-3, then three of about 9e-4, below the 1e-3 rule
    d = 2
    lams = [1.0011, 1.0002, 1.0011, 1.0002, 7.0]
    calls = []

    def fixed_draws(data, lam, sigma2, cfg):
        tau2 = 2.0 / lams[len(calls)] ** 2
        calls.append((lam, cfg.iters, cfg.burnin))
        # two retained sweeps whose mean is tau2 in every coordinate
        draws = np.zeros((2, 2 * d + 1))
        draws[:, d:2 * d] = [[0.5 * tau2], [1.5 * tau2]]
        return ChainOutput(draws=draws, names=())

    monkeypatch.setattr(mmlemod, "gibbs_lasso", fixed_draws)
    data = Dataset(y=np.zeros(4), X=np.eye(4)[:, :d])
    res = lasso_mmle_em(data, init_lam=1.0,
                        gibbs_cfg=GibbsConfig(iters=30, burnin=10, seed=3), em_steps=30)
    assert res.converged and res.iterations == 4
    assert res.lam == pytest.approx(1.0002, rel=1e-12)
    assert [c[0] for c in calls] == pytest.approx([1.0] + lams[:3], rel=1e-12)
    assert {c[1:] for c in calls} == {(30, 10)}


def test_lasso_em_rejects_bad_init():
    data = Dataset(y=np.zeros(4), X=np.eye(4))
    with pytest.raises(DomainError):
        lasso_mmle_em(data, init_lam=0.0,
                      gibbs_cfg=GibbsConfig(iters=20, burnin=5, seed=0))


def test_mmle_result_objective_consistent():
    fam = NormalMean(sigma2=1.0)
    data = simulate(fam, 2.0, 30, 9)
    res = mmle_continuous(fam, data, 1e-6, 40.0)
    assert res.objective == pytest.approx(
        log_marginal(fam, res.lam, data), abs=1e-9
    )

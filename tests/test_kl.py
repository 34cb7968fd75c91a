import math

import numpy as np
import pytest

from ebib.errors import CapabilityError, DomainError
from ebib.kl import KlProfile, kl_exact_gaussian, kl_minimizer, kl_monte_carlo
from ebib.models import IndepNormalRegression, NormalMean, RegressionParams
from ebib.samplers import simulate


def test_m1_exact_kl_against_monte_carlo_oracle():
    fam = NormalMean(sigma2=1.0)
    exact = kl_exact_gaussian(fam, 2.0, 4.0, 50)
    est, se = kl_monte_carlo(fam, 2.0, 4.0, 50, reps=4000, seed=17)
    assert abs(est - exact) <= 3.0 * se


def test_m1_exact_kl_nonnegative_and_zero_structure():
    fam = NormalMean(sigma2=1.0)
    # KL >= 0 across a broad sweep
    for t0 in (0.0, 0.7, 2.0):
        for lam in (0.1, 1.0, 4.0, 25.0):
            for n in (5, 50, 500):
                assert kl_exact_gaussian(fam, t0, lam, n) >= 0.0


def test_m2_exact_kl_matches_monte_carlo():
    fam = IndepNormalRegression(sigma2=1.0)
    theta0 = RegressionParams(beta=np.array([0.8, -0.4]), sigma2=1.0)
    data = simulate(fam, theta0, 40, 23)
    tau2 = np.array([1.0, 0.5])
    exact = kl_exact_gaussian(fam, theta0, tau2, 40, data=data)
    # direct Monte Carlo with the same fixed design
    from ebib.marginal import log_marginal
    from ebib.models import Dataset

    g = np.random.default_rng(24)
    vals = []
    for _ in range(2000):
        y = data.X @ theta0.beta + g.normal(size=40)
        d = Dataset(y=y, X=data.X)
        vals.append(fam.log_likelihood(theta0, d)
                    - log_marginal(fam, tau2, d))
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(est - exact) <= 3.0 * se


def test_kl_monte_carlo_matches_exact_five_settings():
    fam = NormalMean(sigma2=1.0)
    settings = [(2.0, 4.0, 30), (2.0, 1.0, 60), (0.5, 0.5, 100),
                (1.0, 9.0, 25), (3.0, 2.0, 80)]
    for i, (t0, lam, n) in enumerate(settings):
        exact = kl_exact_gaussian(fam, t0, lam, n)
        est, se = kl_monte_carlo(fam, t0, lam, n, reps=1500, seed=100 + i)
        assert abs(est - exact) <= 3.0 * se


def test_kl_ordering_oracle_vs_far():
    fam = NormalMean(sigma2=1.0)
    vals = {lam: kl_exact_gaussian(fam, 2.0, lam, 200) for lam in (0.5, 4.0, 20.0)}
    assert vals[4.0] < vals[0.5]
    assert vals[4.0] < vals[20.0]


def test_kl_unimodal_on_grid():
    fam = NormalMean(sigma2=1.0)
    grid = np.geomspace(0.2, 50.0, 120)
    vals = np.array([kl_exact_gaussian(fam, 2.0, lam, 500) for lam in grid])
    imin = int(np.argmin(vals))
    assert np.all(np.diff(vals[: imin + 1]) < 0)
    assert np.all(np.diff(vals[imin:]) > 0)


def test_kl_minimizer_converges_to_oracle_and_stays_positive():
    fam = NormalMean(sigma2=1.0)
    grid = list(np.geomspace(0.5, 32.0, 49))  # log step ~ 0.0866
    dist = []
    for n in (50, 500, 5000):
        prof = kl_minimizer(fam, 2.0, n, grid)
        dist.append(abs(math.log(prof.minimizer) - math.log(4.0)))
        assert prof.min_value > 0.1  # bounded below: the regular case
    step = math.log(grid[1]) - math.log(grid[0])
    assert dist[-1] <= step + 1e-12
    assert dist[0] >= dist[-1]


def test_kl_minimizer_singleton_grid():
    fam = NormalMean(sigma2=1.0)
    prof = kl_minimizer(fam, 2.0, 100, [4.0])
    assert prof.minimizer == 4.0 and prof.min_value > 0


def test_kl_profile_csv_contract(tmp_path):
    prof = KlProfile(lam_grid=[1.0, 2.0], kl_values=np.array([0.5, 0.2]),
                     stderrs=np.array([0.0, 0.0]), minimizer=2.0, min_value=0.2)
    path = tmp_path / "kl.csv"
    prof.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lambda,kl,stderr"
    assert len(lines) == 3


def test_kl_input_validation():
    fam = NormalMean(sigma2=1.0)
    with pytest.raises(DomainError):
        kl_monte_carlo(fam, 2.0, 4.0, 10, reps=0, seed=0)
    with pytest.raises(DomainError):
        kl_minimizer(fam, 2.0, 10, [])
    from ebib.models import MarkovDirichlet

    with pytest.raises(CapabilityError):
        kl_exact_gaussian(MarkovDirichlet(K=2), None, np.ones((2, 2)), 10)

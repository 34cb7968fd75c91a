import math

import numpy as np
import pytest

from ebib import kl as klmod
from ebib import rng as rngmod
from ebib.errors import CapabilityError, DomainError
from ebib.kl import KlProfile, kl_minimizer, kl_monte_carlo
from ebib.models import IndepNormalRegression, NormalMean, RegressionParams
from ebib.samplers import simulate


def test_m1_exact_kl_against_monte_carlo_oracle():
    fam = NormalMean(sigma2=1.0)
    exact = fam.kl_exact(2.0, 4.0, 50)
    est, se = kl_monte_carlo(fam, 2.0, 4.0, 50, reps=4000, seed=17)
    assert abs(est - exact) <= 3.0 * se


def test_m1_exact_kl_nonnegative_and_zero_structure():
    fam = NormalMean(sigma2=1.0)
    # KL >= 0 across a broad sweep
    for t0 in (0.0, 0.7, 2.0):
        for lam in (0.1, 1.0, 4.0, 25.0):
            for n in (5, 50, 500):
                assert fam.kl_exact(t0, lam, n) >= 0.0


def test_m2_exact_kl_matches_monte_carlo():
    fam = IndepNormalRegression(sigma2=1.0)
    theta0 = RegressionParams(beta=np.array([0.8, -0.4]), sigma2=1.0)
    data = simulate(fam, theta0, 40, 23)
    tau2 = np.array([1.0, 0.5])
    exact = fam.kl_exact(theta0, tau2, 40, data)
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
        exact = fam.kl_exact(t0, lam, n)
        est, se = kl_monte_carlo(fam, t0, lam, n, reps=1500, seed=100 + i)
        assert abs(est - exact) <= 3.0 * se


def test_kl_ordering_oracle_vs_far():
    fam = NormalMean(sigma2=1.0)
    vals = {lam: fam.kl_exact(2.0, lam, 200) for lam in (0.5, 4.0, 20.0)}
    assert vals[4.0] < vals[0.5]
    assert vals[4.0] < vals[20.0]


def test_kl_unimodal_on_grid():
    fam = NormalMean(sigma2=1.0)
    grid = np.geomspace(0.2, 50.0, 120)
    vals = np.array([fam.kl_exact(2.0, lam, 500) for lam in grid])
    imin = int(np.argmin(vals))
    assert np.all(np.diff(vals[: imin + 1]) < 0)
    assert np.all(np.diff(vals[imin:]) > 0)


def test_kl_minimizer_converges_to_oracle_and_stays_positive():
    fam = NormalMean(sigma2=1.0)
    grid = list(np.geomspace(0.5, 32.0, 49))  # log step ~ 0.0866
    dist = []
    for n in (50, 500, 5000):
        prof = kl_minimizer(fam, 2.0, n, grid)
        imin = int(np.argmin(prof.kl_values))
        dist.append(abs(math.log(grid[imin]) - math.log(4.0)))
        assert prof.kl_values[imin] > 0.1  # bounded below: the regular case
    step = math.log(grid[1]) - math.log(grid[0])
    assert dist[-1] <= step + 1e-12
    assert dist[0] >= dist[-1]


def test_kl_minimizer_singleton_grid():
    fam = NormalMean(sigma2=1.0)
    prof = kl_minimizer(fam, 2.0, 100, [4.0])
    imin = int(np.argmin(prof.kl_values))
    assert prof.lam_grid[imin] == 4.0 and prof.kl_values[imin] > 0


def test_kl_profile_csv_contract(tmp_path):
    prof = KlProfile(lam_grid=[1.0, 2.0], kl_values=np.array([0.5, 0.2]))
    path = tmp_path / "kl.csv"
    prof.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lambda,kl,stderr"
    assert len(lines) == 3
    # the profile is exact, so its stderr column is 0
    assert [[float(v) for v in line.split(",")] for line in lines[1:]] == [
        [1.0, 0.5, 0.0], [2.0, 0.2, 0.0]]


def test_kl_input_validation():
    fam = NormalMean(sigma2=1.0)
    with pytest.raises(DomainError):
        kl_monte_carlo(fam, 2.0, 4.0, 10, reps=0, seed=0)
    with pytest.raises(DomainError):
        kl_minimizer(fam, 2.0, 10, [])
    # a negative sample size has no KL: the closed form read -3.85 at n = -1
    with pytest.raises(DomainError):
        fam.kl_exact(2.0, 0.5, -1)
    with pytest.raises(DomainError):
        kl_minimizer(fam, 2.0, -1, [0.5])
    with pytest.raises(DomainError):
        kl_monte_carlo(fam, 2.0, 0.5, -1, reps=3, seed=0)
    assert fam.kl_exact(2.0, 0.5, 0) == 0.0
    from ebib.models import MarkovDirichlet

    with pytest.raises(CapabilityError):
        MarkovDirichlet(K=2).kl_exact(None, np.ones((2, 2)), 10)


# (sigma2, theta0, lam, n, reps, seed, estimate, std error) as float.hex,
# recorded from the one-replicate-at-a-time implementation
KL_MC_PINS = [
    (1.0, 2.0, 4.0, 50, 10, 17, '0x1.6a0e5b39529c6p+1', '0x1.8e23f2c2059d1p-4'),
    (1.0, 1.3, 0.7, 137, 150, (0, 'kl-mc', 5), '0x1.8838e5fa00358p+1', '0x1.ed70ba35119b9p-5'),
    (2.5, -0.4, 9.0, 20, 40, ((1, ('a', 2)), 'b', 3), '0x1.a62315f1af9d6p+0', '0x1.7e1afe5772a90p-4'),
    (1.0, 2.0, 4.0, 0, 5, 3, '0x0.0p+0', '0x0.0p+0'),
    (1.0, 2.0, 4.0, 25, 1, 4, '0x1.bd1c99a2c1800p-2', 'nan'),
    (0.5, 0.8, 2.0, 37, 23, (2, 'kl-mc', 99), '0x1.2034f19ae3d35p+1', '0x1.e18823f1e97bdp-4'),
    (1.0, 1.0, 1.0, 3, 7, 1099511627781, '0x1.86b9f6904c47ep-1', '0x1.aceb289ba5a73p-3'),
    (1.0, 3.0, 16.0, 1, 6, (4294967295, 'x', 4294967296), '0x1.0ff467dfc475ap+0', '0x1.3eb6598e6ea64p-2'),
]


@pytest.mark.parametrize("budget", [None, 1, 7, 64, 100])
def test_kl_monte_carlo_pins(monkeypatch, budget):
    # nested seeds, n = 0, reps = 1 (NaN error), multi-word seeds; the small
    # budgets split each estimate into many blocks, down to one row a block
    if budget is not None:
        monkeypatch.setattr(klmod, "_BLOCK_ELEMENTS", budget)
    for sigma2, t0, lam, n, reps, seed, est, se in KL_MC_PINS:
        got = kl_monte_carlo(NormalMean(sigma2=sigma2), t0, lam, n, reps, seed)
        assert (got[0].hex(), got[1].hex()) == (est, se), seed


def test_kl_monte_carlo_blocks_stay_under_budget(monkeypatch):
    sizes = []
    streams = rngmod.streams

    def recording(prefix, indices, suffix=()):
        sizes.append(len(indices))
        return streams(prefix, indices, suffix)

    monkeypatch.setattr(rngmod, "streams", recording)
    monkeypatch.setattr(klmod, "_BLOCK_ELEMENTS", 100)
    kl_monte_carlo(NormalMean(), 2.0, 4.0, 30, 23, 5)
    assert sizes == [3] * 7 + [2]
    sizes.clear()
    kl_monte_carlo(NormalMean(), 2.0, 4.0, 250, 3, 5)
    assert sizes == [1, 1, 1]


def test_kl_monte_carlo_needs_rowwise_family():
    fam = IndepNormalRegression(sigma2=1.0)
    theta0 = RegressionParams(beta=np.array([0.8, -0.4]), sigma2=1.0)
    with pytest.raises(CapabilityError):
        kl_monte_carlo(fam, theta0, np.array([1.0, 0.5]), 40, reps=3, seed=0)

import math

import numpy as np
import pytest

from ebib.errors import CapabilityError, CapacityError, DomainError
from ebib.marginal import (
    _log_alloc_mass,
    log_marginal,
    markov_log_marginal,
    markov_log_marginal_factorials,
    markov_ray_derivative,
    mixture_marginal_exact,
    mixture_marginal_profile,
    profile_argmax,
)
from ebib.models import (
    BayesLasso,
    Dataset,
    GPriorParams,
    GPriorRegression,
    IndepNormalRegression,
    MixtureParams,
    NormalMean,
    OverfittedMixture,
    RegressionParams,
)
from ebib.numerics import rank_one_gaussian_logpdf
from ebib.samplers import orthogonal_design, simulate
from helpers import (cluster_log_marginal_reference, gaussian_logpdf, log_alloc_mass_reference,
                     m1_quadrature_log_marginal)
from helpers import markov_log_marginal as markov_log_marginal_ref
from helpers import markov_log_marginal_on_arrays, mixture_marginal_exact_one_lam


def test_m1_closed_two_point_checkpoint():
    fam = NormalMean(sigma2=1.0)
    data = Dataset(y=[0.0, 0.0])
    want = gaussian_logpdf([0.0, 0.0], [0.0, 0.0], np.eye(2) + np.ones((2, 2)))
    assert log_marginal(fam, 1.0, data) == pytest.approx(want, abs=1e-12)


def test_m1_closed_matches_dense_oracle():
    cases = [(np.random.default_rng(1).normal(size=30), 1.7, 2.3)]
    g = np.random.default_rng(11)
    for n in (5, 17, 30, 50):
        y = g.normal(size=n)
        cases.append((y, float(g.uniform(0.3, 3.0)), float(g.uniform(0.0, 5.0))))
    for y, sigma2, lam in cases:
        n = y.size
        want = gaussian_logpdf(y, np.zeros(n), sigma2 * np.eye(n) + lam * np.ones((n, n)))
        got = log_marginal(NormalMean(sigma2=sigma2), lam, Dataset(y=y))
        assert got == pytest.approx(want, abs=1e-10)


def test_m1_marginal_domain():
    with pytest.raises(DomainError):
        NormalMean(sigma2=0.0)
    with pytest.raises(DomainError):
        NormalMean(sigma2=1.0).log_marginal(-1.0, Dataset(y=[0.0]))


def test_m1_quadrature_matches_closed():
    fam = NormalMean(sigma2=1.0)
    data = simulate(fam, 2.0, 30, 0)
    for lam in (0.5, 4.0, 16.0):
        closed = log_marginal(fam, lam, data)
        quad = m1_quadrature_log_marginal(fam, lam, data)
        assert quad == pytest.approx(closed, abs=1e-8)


def test_m2_closed_matches_dense_oracle():
    g = np.random.default_rng(2)
    fam = IndepNormalRegression(sigma2=0.8)
    X = g.normal(size=(25, 3))
    y = g.normal(size=25)
    tau2 = np.array([1.5, 0.0, 0.4])  # includes a boundary coordinate
    cov = 0.8 * np.eye(25) + (X * tau2[None, :]) @ X.T
    want = gaussian_logpdf(y, np.zeros(25), cov)
    got = log_marginal(fam, tau2, Dataset(y=y, X=X))
    assert got == pytest.approx(want, abs=1e-10)


def test_m3_closed_argmax_is_the_closed_form_mmle():
    fam = GPriorRegression(V=np.eye(3) * (100.0 / 3.0))
    theta0 = GPriorParams(sigma=1.0, alpha=0.5, beta=[1.0, -0.5, 0.8])
    data = simulate(fam, theta0, 120, 5)
    lam_hat = fam.closed_form_mmle(data)
    best = log_marginal(fam, lam_hat, data)
    for lam in np.geomspace(lam_hat / 5, lam_hat * 5, 80):
        assert best >= log_marginal(fam, float(lam), data) - 1e-12


def test_m5_closed_matches_coordinate_quadrature():
    fam = BayesLasso(sigma2=1.0)
    X = orthogonal_design(40, 1, seed=7, scale=2.0)
    g = np.random.default_rng(8)
    y = X[:, 0] * 0.7 + g.normal(size=40)
    data = Dataset(y=y, X=X)
    lam = 1.3
    closed = log_marginal(fam, lam, data)

    # brute force: integrate exp(loglik + logprior) over the single coefficient
    from ebib.numerics import integrate

    def integrand(b):
        r = y - np.outer(b, X[:, 0])  # one row of residuals per abscissa
        ll = -0.5 * 40 * math.log(2 * math.pi) - 0.5 * np.sum(r * r, axis=1)
        lp = math.log(lam / 2.0) - lam * np.abs(b)
        return np.exp(ll - closed + lp)

    bhat = float(X[:, 0] @ y) / float(X[:, 0] @ X[:, 0])
    val = integrate(integrand, bhat - 1.0, bhat + 1.0)
    assert math.log(val) == pytest.approx(0.0, abs=1e-6)


def test_m5_closed_requires_known_sigma_and_orthogonal_design():
    g = np.random.default_rng(9)
    X = g.normal(size=(20, 2))
    data = Dataset(y=g.normal(size=20), X=X)
    with pytest.raises(CapabilityError):
        log_marginal(BayesLasso(sigma2=None), 1.0, data)
    with pytest.raises(CapabilityError):
        log_marginal(BayesLasso(sigma2=1.0), 1.0, data)
    # the coordinate posteriors check the same two conditions
    orthogonal = Dataset(y=data.y, X=orthogonal_design(20, 2, seed=9))
    for fam, d in ((BayesLasso(sigma2=None), orthogonal), (BayesLasso(sigma2=1.0), data)):
        for call in (lambda: fam.coordinate_posterior(1.0, d, 0),
                     lambda: fam.posterior(1.0, d)):
            with pytest.raises(CapabilityError):
                call()
    assert BayesLasso(sigma2=1.0).coordinate_posterior(1.0, orthogonal, 1).sd > 0


# ---------------------------------------------------------------------------
# Markov


def test_markov_marginal_all_zero_counts_is_zero():
    counts = np.zeros((3, 3), dtype=int)
    alpha = np.full((3, 3), 1.7)
    assert markov_log_marginal(counts, alpha) == 0.0
    assert markov_log_marginal_factorials(counts, alpha) == 0.0


def test_markov_marginal_matches_factorial_form():
    g = np.random.default_rng(3)
    counts = g.integers(0, 8, size=(3, 3))
    for _ in range(5):
        alpha = g.uniform(0.1, 5.0, size=(3, 3))
        a = markov_log_marginal(counts, alpha)
        b = markov_log_marginal_factorials(counts, alpha)
        assert a == pytest.approx(b, abs=1e-10)


def test_markov_marginal_equals_the_numpy_scalar_form():
    # the row sums, the cell terms and their left-to-right order as in the
    # form on numpy rows, bit for bit; also for strided and Fortran-ordered
    # concentrations and counts
    g = np.random.default_rng(11)
    for K in (2, 3, 4, 9, 17):
        for top in [7, 3000] * 40:  # small counts make the row sums count
            counts = g.integers(0, top, size=(K, K)) * (g.random((K, K)) < 0.7)
            alpha = np.exp(g.uniform(np.log(1e-3), np.log(50.0), size=(K, K)))
            for a in (alpha, alpha.T, np.asfortranarray(alpha), np.repeat(alpha, 2, axis=1)[:, ::2]):
                for c in (counts, np.asfortranarray(counts)):
                    assert markov_log_marginal(c, a) == markov_log_marginal_ref(c, a)


def test_markov_marginal_equals_the_array_form():
    # one reduction per call and unchecked lgamma against numpy row sums and
    # checked log_gamma: rows of 1 to 12 cells (from 8 on numpy's pairwise
    # sum differs from adding left to right), bit for bit
    g = np.random.default_rng(19)
    for _ in range(600):
        K, width = int(g.integers(1, 4)), int(g.integers(1, 13))
        counts = g.integers(0, int(g.choice([5, 3000])), size=(K, width))
        counts *= g.random((K, width)) < 0.7
        alpha = np.exp(g.uniform(np.log(1e-3), np.log(50.0), size=(K, width)))
        for a in (alpha, np.asfortranarray(alpha)):
            assert markov_log_marginal(counts, a) == markov_log_marginal_on_arrays(counts, a)


@pytest.mark.parametrize("bad", [0.0, -0.0, -1e-300, -2.5, math.nan, -math.inf])
def test_markov_marginal_raises_as_log_gamma_does(bad):
    # the same DomainError as the checked form, at the same argument
    counts = np.array([[3, 0, 5], [1, 1, 1]])
    for i, j in [(0, 0), (0, 1), (1, 2)]:
        alpha = np.full((2, 3), 1.5)
        alpha[i, j] = bad
        with pytest.raises(DomainError) as want:
            markov_log_marginal_on_arrays(counts, alpha)
        with pytest.raises(DomainError) as got:
            markov_log_marginal(counts, alpha)
        assert str(got.value) == str(want.value)


def test_markov_ray_derivative_matches_finite_difference():
    counts = np.array([[556, 269, 0], [0, 0, 7], [0, 0, 0], [3, 5, 2]])
    got = markov_ray_derivative(counts, 50.0)
    for i in (0, 3):
        pos = counts[i] > 0
        c = counts[i, pos][None, :]
        scale = c / c.max()
        h = 1e-4
        fd = (markov_log_marginal(c, (50.0 + h) * scale)
              - markov_log_marginal(c, (50.0 - h) * scale)) / (2 * h)
        assert got[i] == pytest.approx(fd, rel=1e-6)
    # one positive cell or none: the row marginal is flat along the ray
    assert got[1] == 0.0 and got[2] == 0.0
    assert got[0] > 0


# ---------------------------------------------------------------------------
# mixtures


def _mix_family():
    return OverfittedMixture(K=2, comp_var=1.0, loc_mean=0.0, loc_var=4.0)


def test_m7_single_observation_checkpoint():
    # n=1: marginal = integral of the component density over weights/locations;
    # with one point the weight prior integrates out and the location prior
    # convolves with the kernel: N(0, comp_var + loc_var)
    fam = _mix_family()
    data = Dataset(y=[0.3])
    want = gaussian_logpdf([0.3], [0.0], np.array([[5.0]]))
    got, = mixture_marginal_exact(data, [0.7], fam)
    assert got == pytest.approx(want, abs=1e-12)


def test_m7_enumeration_matches_direct_quadrature_n3():
    fam = _mix_family()
    y = np.array([-0.4, 0.9, 0.1])
    lam = 1.0
    got, = mixture_marginal_exact(Dataset(y=y), [lam], fam)

    # dense trapezoid over (p, gamma1, gamma2)
    ps = np.linspace(1e-4, 1 - 1e-4, 201)
    gs = np.linspace(-9.0, 9.0, 241)
    P, G1, G2 = np.meshgrid(ps, gs, gs, indexing="ij")
    like = np.ones_like(P)
    for yi in y:
        f1 = np.exp(-0.5 * (yi - G1) ** 2) / math.sqrt(2 * math.pi)
        f2 = np.exp(-0.5 * (yi - G2) ** 2) / math.sqrt(2 * math.pi)
        like = like * (P * f1 + (1.0 - P) * f2)
    prior = (
        (P * (1 - P)) ** (lam - 1.0)
        * math.gamma(2 * lam) / math.gamma(lam) ** 2
        * np.exp(-0.5 * G1**2 / 4.0) / math.sqrt(2 * math.pi * 4.0)
        * np.exp(-0.5 * G2**2 / 4.0) / math.sqrt(2 * math.pi * 4.0)
    )
    vals = like * prior
    integral = np.trapezoid(np.trapezoid(np.trapezoid(vals, gs, axis=2), gs, axis=1), ps)
    assert math.exp(got) == pytest.approx(float(integral), abs=1e-4)


def test_m7_enumeration_on_a_grid_equals_one_walk_per_lam():
    # one walk of the allocations for the whole grid, each value == the walk
    # for that lam alone
    g = np.random.default_rng(8)
    for K, n in [(2, 1), (2, 8), (3, 6), (4, 5), (5, 3)]:
        fam = OverfittedMixture(K=K, comp_var=float(g.uniform(0.3, 2.0)),
                                loc_mean=float(g.normal()), loc_var=float(g.uniform(0.5, 6.0)))
        data = Dataset(y=g.normal(0.0, 2.0, n))
        grid = list(np.geomspace(0.025, 0.5, 5)) + [1.0, 7.3]
        got = mixture_marginal_exact(data, grid, fam)
        assert got == [mixture_marginal_exact_one_lam(data, lam, fam) for lam in grid]
        assert mixture_marginal_exact(data, [grid[2]], fam) == [got[2]]
    with pytest.raises(DomainError):
        mixture_marginal_exact(data, [0.5, 0.0], fam)


def test_cluster_marginal_equals_its_former_body():
    # the shared rank-one kernel keeps the bits of the mixture's former
    # per-cluster body, on Python numbers and on numpy scalars; the walk
    # calls it on nonempty clusters only
    g = np.random.default_rng(20)
    for _ in range(400):
        m = int(g.integers(0, 30))
        S = float(g.normal(0.0, 3.0)) * math.sqrt(m)
        Q = S * S / max(m, 1) + float(g.exponential(2.0)) * m
        cv, lv = float(g.uniform(0.1, 5.0)), float(g.uniform(0.01, 10.0))
        if m == 0:
            continue
        for args in ((m, S, Q, cv, lv), (np.int64(m), np.float64(S), np.float64(Q), cv, lv)):
            got, want = rank_one_gaussian_logpdf(*args), cluster_log_marginal_reference(*args)
            assert type(got) is type(want) and got.hex() == want.hex(), args


def test_allocation_mass_equals_the_per_vector_sum():
    # one row per count vector, each == the builtin sum over that vector
    g = np.random.default_rng(21)
    for K in range(2, 6):
        for n in (1, 7, 40):
            counts = g.multinomial(n, np.full(K, 1.0 / K), size=30)
            for lam in (0.025, 0.3, 1.0, 7.3):
                want = [log_alloc_mass_reference(vec, lam, n) for vec in counts.tolist()]
                assert _log_alloc_mass(counts, lam, n).tolist() == want, (K, n, lam)


def test_m7_enumeration_permutation_invariant():
    fam = _mix_family()
    y = np.array([0.2, -1.1, 0.8, 1.9, -0.3])
    a, = mixture_marginal_exact(Dataset(y=y), [0.5], fam)
    b, = mixture_marginal_exact(Dataset(y=y[::-1].copy()), [0.5], fam)
    assert a == pytest.approx(b, abs=1e-10)


def test_m7_enumeration_capacity_guard():
    fam = _mix_family()
    with pytest.raises(CapacityError):
        mixture_marginal_exact(Dataset(y=np.zeros(25)), [0.5], fam)


def test_m7_reweighting_matches_enumeration_within_3se():
    fam = _mix_family()
    t0 = MixtureParams(weights=[1.0, 0.0], means=[0.0, 0.0], variances=[1.0, 1.0])
    data = simulate(fam, t0, 8, 42)
    lam_ref = 0.5
    grid = [0.1, 0.25, 0.5]
    rows = mixture_marginal_profile(data, grid, lam_ref, draws=20000, seed=11,
                                    family=fam)
    ref, = mixture_marginal_exact(data, [lam_ref], fam)
    for r in rows:
        exact_delta = mixture_marginal_exact(data, [r["lam"]], fam)[0] - ref
        assert abs(r["delta_logm"] - exact_delta) <= 3.0 * max(r["stderr"], 1e-12)


def test_m7_profile_argmax_matches_enumeration_argmax_n8():
    fam = _mix_family()
    t0 = MixtureParams(weights=[1.0, 0.0], means=[0.0, 0.0], variances=[1.0, 1.0])
    data = simulate(fam, t0, 8, 42)
    grid = list(np.geomspace(0.025, 0.5, 5))
    enum_arg = grid[int(np.argmax(mixture_marginal_exact(data, grid, fam)))]
    rows = mixture_marginal_profile(data, grid, 0.5, draws=32000, seed=12,
                                    family=fam)
    assert profile_argmax(rows) == enum_arg


def test_m7_profile_rows_are_pinned():
    # recorded before the allocation-mass table replaced elementwise log_gamma
    fam = _mix_family()
    t0 = MixtureParams(weights=[1.0, 0.0], means=[0.5, 0.0], variances=[1.0, 1.0])
    data = simulate(fam, t0, 60, (7, "pinprof"))
    rows = mixture_marginal_profile(data, list(np.geomspace(0.05, 1.0, 4)), 0.5,
                                    draws=400, seed=9, family=fam)
    want = [
        (0.8978431243363101, 0.1271832199296375, 194.34497044732294),
        (0.6831766878763517, 0.100403158269638, 250.8127500503041),
        (0.21255445170217002, 0.035187360741851165, 379.102294731911),
        (-0.5775887860637146, 0.142619522544384, 271.240203784782),
    ]
    assert [(r["delta_logm"], r["stderr"], r["ess"]) for r in rows] == want


def test_reweighting_guards():
    fam = _mix_family()
    data = Dataset(y=np.array([0.1, -0.2]))
    with pytest.raises(DomainError):
        mixture_marginal_profile(data, [0.01], 0.5, draws=100, seed=0, family=fam)

"""End-to-end acceptance checks, one per headline property of the library.

Each test prints a single ``CRITERION k: PASS/FAIL`` line (uncaptured) and then
asserts.  Criterion 9 checks that the M4 MMLE has the sparsity structure of the
prior oracle (``MarkovDirichlet.oracle_hyperparameter``): zero-count cells on
the lower box edge, and every cell on the lower edge, on the upper edge or
strictly inside the box exactly where the oracle's is.  Positive cells cannot
all be interior: a single multinomial row carries no overdispersion, so the
Dirichlet-multinomial row marginal keeps rising along the ray alpha = t * p_hat
toward an unattained supremum, and a box-constrained maximizer parks each row's
dominant cell on the upper edge, as the oracle does.  The test also checks that
the ray derivative at the upper edge is positive for every row with two or more
positive cells.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from ebib.cli import EXPERIMENTS
from ebib.marginal import _cluster_log_marginal
from ebib.mmle import RestrictedDomain, mmle_continuous
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
from ebib.numerics import log_gamma
from ebib.samplers import (
    GibbsConfig,
    effective_sample_size,
    gibbs_lasso,
    gibbs_mixture_weights,
    orthogonal_design,
    simulate,
)

TABLE1_BETA0 = [0.5, -2.0, 1.0, 3.0] + [0.0] * 11


@functools.lru_cache(maxsize=None)
def _run(name):
    func, defaults = EXPERIMENTS[name]
    return func(dict(defaults))


def _report(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {k:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_table_reproduction(capsys):
    _, _, passed, d = _run("table1-lasso")
    ok = 2.0 <= d["median_em"] <= 2.6 and 2.1 <= d["median_pseudo"] <= 2.6
    _report(capsys, 1, ok,
            f"median EM {d['median_em']:.3f} in [2.0,2.6], "
            f"median plug-in {d['median_pseudo']:.3f} in [2.1,2.6] "
            f"(oracle {d['oracle']:.4f}, n={d['n']}, 20 seeds)")
    assert ok and passed


def test_criterion_02_oracle_formulas_exact(capsys):
    errs = {}
    errs["m1"] = abs(NormalMean(sigma2=1.0).oracle_hyperparameter(2.0) - 4.0)

    beta2 = np.array([0.5, 0.0, -2.0, 0.0, 1.0])
    got2 = IndepNormalRegression(sigma2=1.0).oracle_hyperparameter(
        RegressionParams(beta=beta2, sigma2=1.0))
    errs["m2"] = float(np.max(np.abs(got2 - beta2**2)))

    V = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 1.1]])
    fam3 = GPriorRegression(V=V)
    b0 = np.array([0.7, -1.1, 0.4])
    t3 = GPriorParams(sigma=1.3, alpha=0.2, beta=b0)
    direct3 = float(b0 @ V @ b0) / (1.3**2 * (3.0 - 2.0))
    errs["m3"] = abs(fam3.oracle_hyperparameter(t3) - direct3)

    fam5 = BayesLasso(sigma2=1.0)
    t5 = RegressionParams(beta=np.array(TABLE1_BETA0), sigma2=1.0)
    got5 = fam5.oracle_hyperparameter(t5)
    errs["m5"] = abs(got5 - 15.0 / 6.5)
    assert got5 == pytest.approx(2.3077, abs=5e-5)

    fam6 = GaussMixtureKnownK(K=3, omega=2.0)
    t6 = MixtureParams(weights=[0.2, 0.5, 0.3], means=[-1.0, 0.4, 2.0],
                       variances=[0.8, 1.3, 0.6])
    xi, tau, psi = fam6.oracle_hyperparameter(t6)
    inv_v = 1.0 / t6.variances
    xi_d = float(np.sum(inv_v * t6.means) / np.sum(inv_v))
    tau_d = 3.0 / float(np.sum((t6.means - xi_d) ** 2 * inv_v))
    psi_d = 3.0 * 2.0 / float(np.sum(inv_v))
    errs["m6"] = max(abs(xi - xi_d), abs(tau - tau_d), abs(psi - psi_d))

    worst = max(errs.values())
    ok = worst <= 1e-10
    _report(capsys, 2, ok,
            f"max |oracle - direct| over M1/M2/M3/M5/M6 = {worst:.2e} (<= 1e-10)")
    assert ok, errs


def test_criterion_03_gprior_closed_form_mmle(capsys):
    V = np.eye(4) * (100.0 / 3.0)
    fam = GPriorRegression(V=V)
    worst, hit_zero = 0.0, 0
    for seed in range(20):
        g = np.random.default_rng(seed)
        beta = np.zeros(4) if seed % 4 == 0 else g.normal(0.0, 0.3, size=4)
        theta0 = GPriorParams(sigma=1.0, alpha=0.5, beta=beta)
        data = simulate(fam, theta0, 60, seed)
        closed = fam.closed_form_mmle(data)
        res = mmle_continuous(fam, data, RestrictedDomain(box=((0.0, 100.0),)),
                              tol=1e-9)
        worst = max(worst, abs(res.lam - closed))
        hit_zero += closed == 0.0
    ok = worst <= 1e-6 and hit_zero >= 1
    _report(capsys, 3, ok,
            f"max |continuous - closed| = {worst:.2e} over 20 datasets "
            f"(<= 1e-6), truncation branch hit {hit_zero}x")
    assert ok


def test_criterion_04_first_order_l1_prediction(capsys):
    _, _, _, d = _run("merging-rates")
    ratio = d["median_ratio_at_nmax"]
    gaps = [d["sqrt_n_gap_by_n"][k] for k in ("50", "200", "800")]
    ok = 0.9 <= ratio <= 1.1 and all(a > b for a, b in zip(gaps, gaps[1:]))
    _report(capsys, 4, ok,
            f"median exact/predicted = {ratio:.3f} at n=800; "
            f"sqrt(n)*|gap| medians {[round(x, 4) for x in gaps]} decreasing")
    assert ok


def test_criterion_05_oracle_fast_merging(capsys):
    _, _, _, dm = _run("merging-rates")
    eb = [dm["sqrt_n_eb_oracle_l1_by_n"][k] for k in ("50", "200", "800")]
    _, _, _, dp = _run("predictive-rates")
    pred = [dp["n_times_l1_by_n"][k] for k in ("50", "200", "800")]
    ok = (all(a > b for a, b in zip(eb, eb[1:]))
          and all(a > b for a, b in zip(pred, pred[1:])))
    _report(capsys, 5, ok,
            f"sqrt(n)*posterior-L1 medians {[round(x, 4) for x in eb]} and "
            f"n*predictive-L1 medians {[round(x, 4) for x in pred]} both decreasing")
    assert ok


def test_criterion_06_kl_oracle_alignment(capsys):
    _, _, passed, d = _run("kl-oracle")
    ok = passed and d["min_kl"] > 0 and d["mc_within_3se_fraction"] >= 0.95
    _report(capsys, 6, ok,
            f"grid minimizer {d['grid_minimizer']:.4f} within one step of "
            f"{d['lam_star']:.1f} at n=5000, min KL {d['min_kl']:.4f} > 0, "
            f"MC within 3se in {d['mc_within_3se_fraction']:.0%} of 100 configs")
    assert ok


def test_criterion_07_mmle_consistency(capsys):
    _, _, passed, d = _run("mmle-consistency")
    med = [d["median_abs_err_by_n"][k] for k in ("100", "1000", "10000")]
    ok = passed and all(a > b for a, b in zip(med, med[1:])) and med[-1] < 0.3
    _report(capsys, 7, ok,
            f"median |lam_hat - 4| = {[round(x, 4) for x in med]} over "
            f"n in (100, 1000, 10000), decreasing and < 0.3 at the end")
    assert ok


def test_criterion_08_mixture_mmle_decay(capsys):
    _, _, passed, d = _run("mixture-rate")
    med = [d["median_lam_hat_by_n"][k] for k in ("100", "400", "1600")]
    stat = [d["rate_stat_by_n"][k] for k in ("100", "400", "1600")]
    monotone = all(a >= b for a, b in zip(med, med[1:]))
    band = max(stat) <= 10.0 * min(stat)
    match8 = d["enum_argmax_n8"] == d["reweight_argmax_n8"]
    ok = passed and monotone and band and match8
    _report(capsys, 8, ok,
            f"median restricted argmax {[round(x, 4) for x in med]} "
            f"non-increasing; rate statistic within a factor-10 band "
            f"({min(stat):.3f}..{max(stat):.3f}); n=8 reweighting argmax "
            f"{d['reweight_argmax_n8']:.4f} equals enumeration argmax")
    assert ok


def test_criterion_09_markov_sparsity_structure(capsys):
    name = "markov-sparsity"
    _, _, _, d = _run(name)
    alpha_hat = np.asarray(d["alpha_hat"])
    counts = np.asarray(d["counts"])
    fam = MarkovDirichlet(K=3)
    lo, hi = fam.BOX
    oracle = fam.oracle_hyperparameter(EXPERIMENTS[name][1]["transition"])

    def edge_pattern(alpha):
        # -1 on the lower edge, +1 on the upper edge, 0 strictly inside the box
        alpha = np.asarray(alpha)
        return np.where(alpha <= lo, -1, np.where(alpha >= hi, 1, 0))

    def matches_oracle(alpha):
        return bool(np.array_equal(edge_pattern(alpha), edge_pattern(oracle)))

    # the clause can fail: a positive cell dropped to the lower edge, and a
    # dominant cell pulled into the interior, each break the pattern
    dominant = int(np.argmax(counts[0]))
    positive = int(np.flatnonzero((counts[0] > 0) & (alpha_hat[0] < hi))[0])
    dropped, pulled = alpha_hat.copy(), alpha_hat.copy()
    dropped[0, positive] = lo
    pulled[0, dominant] = 0.5 * (lo + hi)
    assert not matches_oracle(dropped) and not matches_oracle(pulled)

    ok_zero = d["zero_cells_at_lower_edge"]
    ok_pattern = matches_oracle(alpha_hat)
    formula_ok = d["formula_crosscheck_max_abs"] < 1e-10
    ray = d["ray_derivative_at_upper_edge"]
    ok_ray = all(r > 0 for r, c in zip(ray, counts) if np.count_nonzero(c) >= 2)
    ok = ok_zero and ok_pattern and formula_ok and ok_ray
    _report(capsys, 9, ok,
            f"zero-count cells at lower edge: {ok_zero}; alpha_hat edge pattern "
            f"equals the prior oracle's: {ok_pattern}; row-marginal ray "
            f"derivatives at the upper edge {[round(r, 4) for r in ray]} (> 0); "
            f"Dirichlet-multinomial formula cross-check "
            f"{d['formula_crosscheck_max_abs']:.2e} (< 1e-10)")
    assert ok_zero and formula_ok
    assert ok_pattern, (
        f"alpha_hat edge pattern {edge_pattern(alpha_hat).tolist()} differs from "
        f"the prior oracle's {edge_pattern(oracle).tolist()}; alpha_hat = "
        f"{d['alpha_hat']} for counts {d['counts']}, oracle = {oracle.tolist()}")
    assert ok_ray, f"ray derivatives {ray} not all positive for counts {d['counts']}"


def test_criterion_10_sampler_correctness(capsys):
    # (a) LASSO Gibbs histogram vs closed-form coordinate posterior
    n = 120
    X = orthogonal_design(n, 1, seed=31, scale=1.0 / math.sqrt(n))
    g = np.random.default_rng(32)
    data = Dataset(y=X[:, 0] * 1.2 + g.normal(size=n), X=X)
    fam5 = BayesLasso(sigma2=1.0)
    cfg = GibbsConfig(iters=51000, burnin=1000, seed=13)
    chain = gibbs_lasso(data, 1.5, sigma2=1.0, cfg=cfg)
    draws = chain.draws[:, 0]
    assert draws.size == 50000
    closed = fam5.coordinate_posterior(1.5, data, 0)
    edges = np.linspace(draws.min() - 0.05, draws.max() + 0.05, 81)
    hist, _ = np.histogram(draws, bins=edges, density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    l1 = float(np.sum(np.abs(hist - closed.pdf(centers))) * (edges[1] - edges[0]))
    xs = np.linspace(edges[0], edges[-1], 2001)
    l1 += float(1.0 - np.trapezoid(closed.pdf(xs), xs))

    # (b) mixture-weights Gibbs vs full enumeration at n = 8
    fam7 = OverfittedMixture(K=2, comp_var=1.0, loc_mean=0.0, loc_var=4.0)
    t0 = MixtureParams(weights=[1.0, 0.0], means=[0.5, 0.0], variances=[1.0, 1.0])
    data8 = simulate(fam7, t0, 8, 77)
    lam = 0.5
    yc = data8.y - fam7.loc_mean
    terms, means = [], []
    for z in itertools.product(range(2), repeat=8):
        z = np.asarray(z)
        counts = np.bincount(z, minlength=2)
        logw = log_gamma(2 * lam) - log_gamma(2 * lam + 8)
        for j in range(2):
            sel = yc[z == j]
            logw += log_gamma(lam + counts[j]) - log_gamma(lam)
            logw += _cluster_log_marginal(counts[j], float(sel.sum()),
                                          float((sel**2).sum()),
                                          fam7.comp_var, fam7.loc_var)
        terms.append(logw)
        means.append((lam + counts[0]) / (2 * lam + 8))
    w = np.exp(np.asarray(terms) - max(terms))
    exact = float(w @ np.asarray(means) / w.sum())
    mcfg = GibbsConfig(iters=21000, burnin=1000, seed=8)
    mchain = gibbs_mixture_weights(data8, lam, fam7, mcfg)
    p1 = mchain.draws[:, 0]
    se = float(np.std(p1, ddof=1)) / math.sqrt(effective_sample_size(p1))
    gap = abs(float(np.mean(p1)) - exact)

    # (c) bit reproducibility by seed
    bitrep = (np.array_equal(chain.draws,
                             gibbs_lasso(data, 1.5, sigma2=1.0, cfg=cfg).draws)
              and np.array_equal(mchain.draws,
                                 gibbs_mixture_weights(data8, lam, fam7, mcfg).draws))
    ok = l1 < 0.05 and gap <= 3.0 * se and bitrep
    _report(capsys, 10, ok,
            f"histogram L1 {l1:.4f} < 0.05 at 5e4 draws; enumeration gap "
            f"{gap:.5f} <= 3se = {3 * se:.5f} at n=8; chains bit-reproducible: "
            f"{bitrep}")
    assert ok


def test_criterion_11_credible_discrepancy(capsys):
    _, _, passed, d = _run("credible-discrepancy")
    curve = [d["sqrt_n_abs_disc_oracle_by_n"][k] for k in ("50", "200", "800")]
    far = d["sqrt_n_abs_disc_far_at_nmax"]
    ok = (passed and all(a > b for a, b in zip(curve, curve[1:]))
          and far > curve[-1])
    _report(capsys, 11, ok,
            f"sqrt(n)*|coverage - 0.9| medians {[round(x, 4) for x in curve]} "
            f"decreasing; far-hyperparameter statistic {far:.4f} stays above "
            f"the oracle value {curve[-1]:.4f} at n=800")
    assert ok

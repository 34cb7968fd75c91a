"""Experiment harness CLI.

Verbs: ``run <config.json>``, ``validate <config.json>``, ``list-experiments``.
Each experiment writes a results CSV (with a provenance header line) and a
summary JSON carrying the pass/fail of its acceptance predicate.  Exit codes:
0 ok, 2 validation failure, 3 structural runtime failure.  The environment
variable ``EBIB_OUTPUT_ROOT`` overrides the output root directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import CapabilityError, EbibError
from .kl import kl_minimizer, kl_monte_carlo
from .marginal import (  # noqa: F401  (log_marginal: perfbench traces this binding)
    MIN_RELIABLE_ESS,
    log_marginal,
    markov_log_marginal,
    markov_log_marginal_factorials,
    markov_ray_derivative,
    mixture_marginal_exact,
    mixture_marginal_profile,
    profile_argmax,
)
from .merging import credible_discrepancy, l1_distance, predicted_l1_posterior
from .mmle import lasso_mmle_em, mmle_continuous, mmle_grid
from .models import (
    BayesLasso,
    Dataset,
    MarkovDirichlet,
    MixtureParams,
    NormalMean,
    OverfittedMixture,
    RegressionParams,
)
from .posteriors import GaussianPosterior, PointMassPosterior
from .samplers import GibbsConfig, orthogonal_design, simulate
from . import rng as rngmod

OUTPUT_ROOT_ENV = "EBIB_OUTPUT_ROOT"

_TABLE1_BETA0 = [0.5, -2.0, 1.0, 3.0] + [0.0] * 11


def _replicates(cfg, tag, cell):
    """Rows (n, s, *cell(n, key)) for every n of ``n_grid`` and seed s.

    ``key = (seed_base, tag, n, s)`` names the cell's random stream, so a row
    does not depend on which other cells run.
    """
    return [(n, s, *cell(n, (cfg["seed_base"], tag, n, s)))
            for n in cfg["n_grid"] for s in range(cfg["seeds"])]


def _medians(rows, ns, f):
    """Per n of ``ns``, the median of f(row) over the rows of that n."""
    return [float(np.median(np.asarray([f(r) for r in rows if r[0] == n], dtype=float)))
            for n in ns]


def _strictly_decreasing(xs):
    return all(a > b for a, b in zip(xs, xs[1:]))


def _by_n(cfg, values):
    return dict(zip(map(str, cfg["n_grid"]), values))


# ---------------------------------------------------------------------------
# experiment implementations; each returns (columns, rows, verdict), where
# verdict(rows) -> (passed, details) judges the rows and draws nothing


def _m1(cfg):
    """The M1 family of an experiment, its truth theta0 and the oracle lam*."""
    fam = NormalMean(sigma2=cfg["sigma2"])
    return fam, cfg["theta0"], fam.oracle_hyperparameter(cfg["theta0"])


def _exp_fig1_densities(cfg):
    fam, theta0, lam_star = _m1(cfg)
    data = simulate(fam, theta0, cfg["n"], cfg["seed_base"])
    lam_hat = fam.closed_form_mmle(data)
    posts = {"dens_eb": fam.posterior(lam_hat, data)}
    for lam in cfg["lambdas"]:
        posts[f"dens_bayes_{lam:g}"] = fam.posterior(float(lam), data)
    posts["dens_oracle"] = fam.posterior(lam_star, data)
    points = [k for k, p in posts.items() if isinstance(p, PointMassPosterior)]
    if points:
        raise CapabilityError(f"{', '.join(points)}: a point-mass posterior "
                              "has no density")
    lo = min(p.mean - 6 * p.sd for p in posts.values())
    hi = max(p.mean + 6 * p.sd for p in posts.values())
    xs = np.linspace(lo, hi, cfg["grid_points"])
    cols = ["x"] + list(posts)

    def verdict(rows):
        # lam_hat is reported, not judged: the table has no column for it
        masses = {k: float(np.trapezoid(rows[:, i], rows[:, 0]))
                  for i, k in enumerate(cols[1:], 1)}
        return all(abs(m - 1.0) < 1e-4 for m in masses.values()), {
            "lam_hat": lam_hat, "lam_star": lam_star, "column_masses": masses}

    return cols, np.column_stack([xs] + [p.pdf(xs) for p in posts.values()]), verdict


def _exp_table1_lasso(cfg):
    beta0 = np.asarray(cfg["beta0"], dtype=float)
    theta0 = RegressionParams(beta=beta0, sigma2=cfg["sigma2"])
    fam = BayesLasso(sigma2=None)
    oracle = fam.oracle_hyperparameter(theta0)

    def cell(n, key):
        data = simulate(fam, theta0, n, key)
        gcfg = GibbsConfig(iters=cfg["gibbs_iters"], burnin=cfg["gibbs_burnin"],
                           seed=rngmod.stream(key, "gibbs").integers(2**31))
        em = lasso_mmle_em(data, init_lam=cfg["init_lam"], gibbs_cfg=gcfg,
                           em_steps=cfg["em_steps"], sigma2=None)
        return em.lam, fam.pseudo_hyperparameter(data), int(em.converged)

    def verdict(rows):
        n_max = max(cfg["n_grid"])
        [em_med], [ps_med] = (_medians(rows, [n_max], lambda r, i=i: r[i]) for i in (2, 3))
        return 2.0 <= em_med <= 2.6 and 2.1 <= ps_med <= 2.6, {
            "n": n_max, "median_em": em_med, "median_pseudo": ps_med,
            "em_converged_frac": float(np.mean([r[4] for r in rows if r[0] == n_max])),
            "oracle": oracle}

    return (["n", "seed", "em_lam", "pseudo_lam", "em_converged"],
            _replicates(cfg, "table1", cell), verdict)


def _exp_fig2_lasso_marginals(cfg):
    beta0 = np.asarray(cfg["beta0"], dtype=float)
    fam = BayesLasso(sigma2=cfg["sigma2"])
    lam_star = fam.oracle_hyperparameter(RegressionParams(beta=beta0, sigma2=cfg["sigma2"]))
    grid = np.geomspace(cfg["lam_lo"], cfg["lam_hi"], cfg["lam_points"])
    rows = []
    g = rngmod.stream(cfg["seed_base"], "fig2-noise")
    for n in cfg["n_grid"]:
        X = orthogonal_design(n, beta0.size, (cfg["seed_base"], "fig2", n),
                              scale=math.sqrt(100.0 / 3.0))
        y = X @ beta0 + g.normal(0.0, math.sqrt(cfg["sigma2"]), size=n)
        data = Dataset(y=y, X=X)
        lam_hat = mmle_grid(fam, data, grid).lam
        for coord in cfg["coords"]:
            p_eb = fam.coordinate_posterior(lam_hat, data, coord)
            p_or = fam.coordinate_posterior(lam_star, data, coord)
            xs = np.linspace(min(p_eb.x[0], p_or.x[0]),
                             max(p_eb.x[-1], p_or.x[-1]), cfg["grid_points"])
            rows.extend(zip([n] * xs.size, [coord] * xs.size, xs, p_eb.pdf(xs), p_or.pdf(xs)))

    def verdict(rows):
        # a block of grid_points rows per (n, coord); a repeated pair keeps its last
        size = cfg["grid_points"]
        gaps = {rows[i][:2]: float(max(abs(r[3] - r[4]) for r in rows[i:i + size]))
                for i in range(0, len(rows), size)}
        n_lo, n_hi = min(cfg["n_grid"]), max(cfg["n_grid"])
        return all(gaps[(n_hi, c)] < gaps[(n_lo, c)] for c in cfg["coords"]), {
            "max_abs_gaps": {f"n={k[0]},coord={k[1]}": v for k, v in gaps.items()},
            "lam_star": lam_star}

    return ["n", "coord", "x", "dens_eb", "dens_oracle"], rows, verdict


def _exp_mmle_consistency(cfg):
    fam, theta0, lam_star = _m1(cfg)

    def cell(n, key):
        lam_hat = fam.closed_form_mmle(simulate(fam, theta0, n, key))
        return lam_hat, abs(lam_hat - lam_star)

    def verdict(rows):
        med = _medians(rows, cfg["n_grid"], lambda r: r[3])
        return _strictly_decreasing(med) and med[-1] < 0.3, {"median_abs_err_by_n": _by_n(cfg, med)}

    return ["n", "seed", "lam_hat", "abs_err"], _replicates(cfg, "cons", cell), verdict


def _exp_kl_oracle(cfg):
    fam, theta0, lam_star = _m1(cfg)
    grid = list(np.geomspace(cfg["lam_lo"], cfg["lam_hi"], cfg["lam_points"]))
    prof = kl_minimizer(fam, theta0, cfg["n"], grid)

    # Monte Carlo vs exact agreement over random configurations
    g = rngmod.stream(cfg["seed_base"], "kl-mc-configs")
    rows = [(lam, kl, 0.0, 1) for lam, kl in zip(grid, prof.kl_values)]
    for c in range(cfg["mc_configs"]):
        t0 = g.uniform(0.5, 3.0)
        lam = math.exp(g.uniform(math.log(0.25), math.log(16.0)))
        n = int(g.integers(20, 200))
        exact = fam.kl_exact(t0, lam, n)
        est, se = kl_monte_carlo(fam, t0, lam, n, cfg["mc_reps"],
                                 (cfg["seed_base"], "kl-mc", c))
        rows.append((lam, est, se, int(abs(est - exact) <= 3.0 * se)))

    def verdict(rows):
        # the grid's exact profile, then one row per Monte Carlo configuration
        kls = [r[1] for r in rows[:len(grid)]]
        idx_min = int(np.argmin(kls))
        idx_star = int(np.argmin(np.abs(np.log(np.asarray(grid)) - math.log(lam_star))))
        min_kl = float(kls[idx_min])
        frac = sum(r[3] for r in rows[len(grid):]) / cfg["mc_configs"]
        return abs(idx_min - idx_star) <= 1 and min_kl > 0 and frac >= 0.95, {
            "grid_minimizer": rows[idx_min][0], "lam_star": lam_star,
            "min_kl": min_kl, "mc_within_3se_fraction": frac}

    return ["lambda", "kl", "stderr", "within_3se"], rows, verdict


def _m1_l1(fam, lam1, lam2, data):
    return l1_distance(fam.posterior(lam1, data), fam.posterior(lam2, data))


def _exp_merging_rates(cfg):
    fam, theta0, lam_star = _m1(cfg)
    lam1, lam2 = cfg["lam_pair"]
    n_grid = cfg["n_grid"]
    pred = {n: predicted_l1_posterior(fam, theta0, lam1, lam2, n) for n in n_grid}

    def cell(n, key):
        data = simulate(fam, theta0, n, key)
        lam_hat = fam.closed_form_mmle(data)
        return (_m1_l1(fam, lam1, lam2, data), pred[n],
                _m1_l1(fam, lam_hat, lam_star, data))

    def verdict(rows):
        n_max = max(n_grid)
        pred_max = next(r[3] for r in rows if r[0] == n_max)
        [ratio] = _medians(rows, [n_max], lambda r: r[2] / r[3])
        [sandwich_lo] = _medians(rows, [n_max], lambda r: r[2])
        gap = _medians(rows, n_grid, lambda r: math.sqrt(r[0]) * abs(r[2] - r[3]))
        eb = _medians(rows, n_grid, lambda r: math.sqrt(r[0]) * r[4])
        return (0.9 <= ratio <= 1.1 and _strictly_decreasing(gap) and _strictly_decreasing(eb)
                and 0.5 * pred_max <= sandwich_lo <= 2.0 * pred_max), {
            "median_ratio_at_nmax": ratio,
            "sqrt_n_gap_by_n": _by_n(cfg, gap),
            "sqrt_n_eb_oracle_l1_by_n": _by_n(cfg, eb),
            "sandwich": {"median_l1": sandwich_lo, "pred": pred_max}}

    return (["n", "seed", "l1_exact", "l1_pred", "l1_eb_oracle"],
            _replicates(cfg, "merge", cell), verdict)


def _m1_predictive(fam, lam, data):
    post = fam.posterior(lam, data)
    return GaussianPosterior(post.mean, post.var + fam.sigma2)


def _exp_predictive_rates(cfg):
    fam, theta0, lam_star = _m1(cfg)

    def cell(n, key):
        data = simulate(fam, theta0, n, key)
        lam_hat = fam.closed_form_mmle(data)
        return (l1_distance(_m1_predictive(fam, lam_hat, data),
                            _m1_predictive(fam, lam_star, data)),)

    def verdict(rows):
        med = _medians(rows, cfg["n_grid"], lambda r: r[0] * r[2])
        return _strictly_decreasing(med), {"n_times_l1_by_n": _by_n(cfg, med)}

    return ["n", "seed", "l1_predictive"], _replicates(cfg, "pred", cell), verdict


def _exp_credible_discrepancy(cfg):
    fam, theta0, lam_star = _m1(cfg)

    def cell(n, key):
        data = simulate(fam, theta0, n, key)
        lam_hat = fam.closed_form_mmle(data)
        return tuple(credible_discrepancy(fam, data, lam_hat, lam, cfg["alpha"])
                     for lam in (lam_star, cfg["lam_far"]))

    def verdict(rows):
        oracle_curve = _medians(rows, cfg["n_grid"], lambda r: math.sqrt(r[0]) * abs(r[2]))
        [far_at_max] = _medians(rows, [max(cfg["n_grid"])],
                                lambda r: math.sqrt(r[0]) * abs(r[3]))
        return _strictly_decreasing(oracle_curve) and far_at_max > oracle_curve[-1], {
            "sqrt_n_abs_disc_oracle_by_n": _by_n(cfg, oracle_curve),
            "sqrt_n_abs_disc_far_at_nmax": far_at_max}

    return ["n", "seed", "disc_oracle", "disc_far"], _replicates(cfg, "cred", cell), verdict


def _exp_mixture_rate(cfg):
    fam = OverfittedMixture(K=cfg["K"], comp_var=cfg["comp_var"],
                            loc_mean=cfg["loc_mean"], loc_var=cfg["loc_var"])
    theta0 = MixtureParams(weights=[1.0] + [0.0] * (cfg["K"] - 1),
                           means=[cfg["true_mean"]] + [0.0] * (cfg["K"] - 1),
                           variances=[cfg["comp_var"]] * cfg["K"])
    lam_ref = cfg["lam_ref"]
    grid = list(np.geomspace(lam_ref / 20.0, lam_ref, cfg["lam_points"]))

    def cell(n, key):
        seed_base, _, _, s = key
        prof = mixture_marginal_profile(
            simulate(fam, theta0, n, key), grid, lam_ref, draws=cfg["draws"],
            seed=rngmod.stream(seed_base, "mixprof", n, s).integers(2**31), family=fam)
        return (profile_argmax(prof),)

    rows = _replicates(cfg, "mixrate", cell)

    # tiny-n cross-check: reweighting argmax equals enumeration argmax on a
    # coarse shared grid (the n=8 profile is nearly flat, so adjacent points
    # of the fine grid sit below Monte Carlo resolution)
    grid8 = list(np.geomspace(lam_ref / 20.0, lam_ref, 5))
    data8 = simulate(fam, theta0, 8, (cfg["seed_base"], "mix8"))
    enum_arg = grid8[int(np.argmax(mixture_marginal_exact(data8, grid8, fam)))]
    rw_arg = profile_argmax(mixture_marginal_profile(
        data8, grid8, lam_ref, draws=max(cfg["draws"], 32000),
        seed=rngmod.stream(cfg["seed_base"], "mix8prof").integers(2**31), family=fam))

    def verdict(rows):
        med = _medians(rows, cfg["n_grid"], lambda r: r[2])
        # share of seeds whose restricted argmax sits on an end of the grid,
        # where the profile may still rise beyond the range reweighting can reach
        at_edge = [float(np.mean([r[2] in (grid[0], grid[-1]) for r in rows if r[0] == n]))
                   for n in cfg["n_grid"]]
        stat = [m * math.log(n) / math.log(math.log(n))
                for m, n in zip(med, cfg["n_grid"])]
        band_ok = max(stat) <= 10.0 * min(stat)
        return all(a >= b for a, b in zip(med, med[1:])) and band_ok and rw_arg == enum_arg, {
            "median_lam_hat_by_n": _by_n(cfg, med),
            "rate_stat_by_n": _by_n(cfg, stat),
            "argmax_at_grid_edge_by_n": _by_n(cfg, at_edge),
            "band_ok": band_ok, "enum_argmax_n8": enum_arg,
            "reweight_argmax_n8": rw_arg}

    return ["n", "seed", "lam_hat"], rows, verdict


def _exp_markov_sparsity(cfg):
    K = 3
    fam = MarkovDirichlet(K=K)
    data = simulate(fam, np.asarray(cfg["transition"], dtype=float), cfg["n"],
                    (cfg["seed_base"], "markov"))
    lo, hi = fam.BOX
    alpha_hat = np.asarray(mmle_continuous(fam, data, lo, hi, seed=cfg["seed_base"]).lam)
    counts = data.counts
    rows = [(i, j, int(counts[i, j]), alpha_hat[i, j], int(alpha_hat[i, j] <= lo),
             int(alpha_hat[i, j] >= hi)) for i in range(K) for j in range(K)]
    # independent Dirichlet-multinomial formula cross-check
    g = rngmod.stream(cfg["seed_base"], "markov-xcheck")
    xcheck = 0.0
    for _ in range(5):
        a = g.uniform(0.1, 5.0, size=(K, K))
        xcheck = max(xcheck, abs(markov_log_marginal(counts, a)
                                 - markov_log_marginal_factorials(counts, a)))

    def verdict(rows):
        # the rows run over the cells in row-major order
        counts, alpha = (np.array([r[k] for r in rows]).reshape(K, K) for k in (2, 3))
        ok_zero = all(r[4] for r in rows if r[2] == 0)
        ok_pos = not any(r[4] or r[5] for r in rows if r[2])
        return ok_zero and ok_pos and xcheck < 1e-10, {
            "zero_cells_at_lower_edge": ok_zero,
            "positive_cells_interior": ok_pos,
            "formula_crosscheck_max_abs": xcheck,
            "ray_derivative_at_upper_edge": markov_ray_derivative(counts, hi).tolist(),
            "alpha_hat": alpha.tolist(),
            "counts": counts.tolist()}

    return ["row", "col", "count", "alpha_hat", "at_lower", "at_upper"], rows, verdict


EXPERIMENTS = {
    "fig1-densities": (_exp_fig1_densities, {
        "theta0": 2.0, "sigma2": 1.0, "n": 30, "seed_base": 0,
        "lambdas": [1.0], "grid_points": 601}),
    "table1-lasso": (_exp_table1_lasso, {
        "beta0": _TABLE1_BETA0, "sigma2": 1.0, "n_grid": [300], "seeds": 20,
        "seed_base": 0, "init_lam": 1.0, "em_steps": 15,
        "gibbs_iters": 1200, "gibbs_burnin": 300}),
    "fig2-lasso-marginals": (_exp_fig2_lasso_marginals, {
        "beta0": _TABLE1_BETA0, "sigma2": 1.0, "n_grid": [40, 300],
        "coords": [0, 13], "seed_base": 0, "lam_lo": 0.2, "lam_hi": 20.0,
        "lam_points": 121, "grid_points": 401}),
    "mmle-consistency": (_exp_mmle_consistency, {
        "theta0": 2.0, "sigma2": 1.0, "n_grid": [100, 1000, 10000],
        "seeds": 50, "seed_base": 0}),
    "kl-oracle": (_exp_kl_oracle, {
        "theta0": 2.0, "sigma2": 1.0, "n": 5000, "lam_lo": 0.5, "lam_hi": 32.0,
        "lam_points": 25, "mc_configs": 100, "mc_reps": 150, "seed_base": 0}),
    "merging-rates": (_exp_merging_rates, {
        "theta0": 2.0, "sigma2": 1.0, "lam_pair": [1.0, 4.0],
        "n_grid": [50, 200, 800], "seeds": 50, "seed_base": 0}),
    "predictive-rates": (_exp_predictive_rates, {
        "theta0": 2.0, "sigma2": 1.0, "n_grid": [50, 200, 800],
        "seeds": 50, "seed_base": 0}),
    "credible-discrepancy": (_exp_credible_discrepancy, {
        "theta0": 2.0, "sigma2": 1.0, "alpha": 0.1, "lam_far": 20.0,
        "n_grid": [50, 200, 800], "seeds": 50, "seed_base": 0}),
    "mixture-rate": (_exp_mixture_rate, {
        "K": 2, "comp_var": 1.0, "loc_mean": 0.0, "loc_var": 4.0,
        "true_mean": 0.0, "lam_ref": 0.5, "lam_points": 13,
        "n_grid": [100, 400, 1600], "seeds": 20, "draws": 4000,
        "seed_base": 0}),
    "markov-sparsity": (_exp_markov_sparsity, {
        "transition": [[0.7, 0.3, 0.0], [0.0, 0.4, 0.6], [0.5, 0.25, 0.25]],
        "n": 2000, "seed_base": 0}),
}


def _check_type(key, value, default):
    """Reject ``value`` unless it has the JSON type of ``default``.

    An int stays an int (not a bool), a float also takes an int but not NaN or
    an infinity (which Python's json reads), and a list stays a nonempty list
    whose elements match the default's first element.
    """
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ValueError(f"{key} must be a nonempty list")
        for v in value:
            _check_type(key, v, default[0])
        return
    want = (int, float) if isinstance(default, float) else type(default)
    if isinstance(value, bool) or not isinstance(value, want):
        raise ValueError(f"{key} must be {type(default).__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")


# The largest float whose square is finite and the smallest whose square is
# > 0: lam* = theta0**2, and the LASSO rate enters squared (the Gibbs
# sampler's inverse-Gaussian shape, the marginal's kappa**2).
_SQUARE_FINITE, _SQUARE_POSITIVE = 1.3407807929942596e154, 1.5717277847026288e-162
_LASSO_RATE = (_SQUARE_POSITIVE, _SQUARE_FINITE, "[]")
# Variances and hyperparameters at which no density exists at 0, and the ends
# of geometric grids.  A subnormal value has lost precision and its reciprocal
# overflows (a merging-rates L1 quadrature at sigma2 = 5e-324 ran past 40 s).
_POSITIVE = (sys.float_info.min, math.inf, "[)")
_INDEX = (0, math.inf, "[)")
# A size: the length of an array of float64 values, a loop count (seeds,
# em_steps, mc_configs; no run time is promised), and a count used as a float
# (sigma2 / n, log log n), exact up to 2**53.  An array whose length is a
# product of sizes holds at most MAX_ELEMENTS values (_check_values): 2**59
# float64 values take 2**62 bytes, which numpy can express, while a shape of
# 2**63 bytes or more it refuses ("array is too big": mmle-consistency n_grid
# [2**62] ended in that ValueError's traceback).  An array within these bounds
# that does not fit in memory raises MemoryError, which `main` maps to exit 3.
MAX_SIZE, MAX_ELEMENTS = 2**53, 2**59
_SIZE = (1, MAX_SIZE, "[]")

# The range of each numeric config key, as (lowest, highest, ends): "[" or "]"
# keeps an end, "(" or ")" leaves it out, and each entry of a list value must
# be in range.  An (experiment, key) entry overrides the shared key, and None
# marks a key with no bound.  Rules that tie keys together are in _check_values.
BOUNDS = {
    "n": _SIZE, "seeds": _SIZE, "grid_points": _SIZE, "lam_points": _SIZE,
    "em_steps": _SIZE, "gibbs_iters": _SIZE, "mc_configs": _SIZE, "n_grid": _SIZE,
    "seed_base": _INDEX, "coords": _INDEX, "gibbs_burnin": _INDEX,
    "sigma2": _POSITIVE, "comp_var": _POSITIVE, "loc_var": _POSITIVE, "lambdas": _POSITIVE,
    "lam_pair": _POSITIVE, "lam_lo": _POSITIVE, "lam_hi": _POSITIVE, "lam_ref": _POSITIVE,
    "init_lam": _LASSO_RATE, ("fig2-lasso-marginals", "lam_lo"): _LASSO_RATE,
    ("fig2-lasso-marginals", "lam_hi"): _LASSO_RATE,
    "theta0": (-_SQUARE_FINITE, _SQUARE_FINITE, "[]"),
    # 0 is the point-mass prior, which the credible discrepancy allows
    "lam_far": (0.0, math.inf, "[)"),
    "alpha": (0.0, 1.0, "()"),
    # the 3-standard-error check needs a standard error
    "mc_reps": (2, MAX_SIZE, "[]"),
    # the rate statistic divides by log log n, which is positive only from n = 3
    ("mixture-rate", "n_grid"): (3, MAX_SIZE, "[]"),
    # 5**8 <= ENUMERATION_CAP < 6**8 allocations in the n = 8 enumeration check
    "K": (2, 5, "[]"),
    # a profile point's effective sample size is at most draws
    "draws": (MIN_RELIABLE_ESS, MAX_SIZE, "[]"),
    # more rows than coefficients for the sampler, and len(beta0) >= 1
    ("table1-lasso", "n_grid"): (2, MAX_SIZE, "[]"),
    # any finite location; beta0 and transition are checked whole below
    "loc_mean": None, "true_mean": None, "beta0": None, "transition": None,
}


def _check_values(cfg, defaults):
    """Reject well-typed values that no experiment can run with."""
    name = cfg["experiment"]
    for key in defaults:
        bound = BOUNDS.get((name, key), BOUNDS[key])
        if bound is None:
            continue
        lo, hi, ends = bound
        for v in cfg[key] if isinstance(cfg[key], list) else [cfg[key]]:
            if not ((lo < v if ends[0] == "(" else lo <= v)
                    and (v < hi if ends[1] == ")" else v <= hi)):
                raise ValueError(f"{key} must lie in {ends[0]}{lo!r}, {hi!r}{ends[1]}, "
                                 f"got {cfg[key]!r}")
    # the first-order prediction, a divisor, is 0 at lam1 = lam2
    if "lam_pair" in cfg and len(set(cfg["lam_pair"])) != 2:
        raise ValueError("lam_pair must hold two different values")
    # kl-oracle takes log lam*, and the first-order prediction that
    # merging-rates divides by is 0 at lam* = theta0**2 = 0
    if name in ("kl-oracle", "merging-rates") and not cfg["theta0"] ** 2 > 0:
        raise ValueError(f"{name} needs theta0**2 > 0, got {cfg['theta0']!r}")
    if "coords" in cfg and max(cfg["coords"]) >= len(cfg["beta0"]):
        raise ValueError("coords must index beta0")
    if "transition" in cfg:
        if [len(r) for r in cfg["transition"]] != [3, 3, 3]:
            raise ValueError("transition must be a 3x3 matrix")
        MarkovDirichlet._rows(cfg["transition"])
    # the LASSO sampler needs more rows than coefficients, an orthogonal design
    # at least as many
    d = len(cfg.get("beta0", ())) + (name == "table1-lasso")
    if "beta0" in cfg and min(cfg["n_grid"]) < d:
        raise ValueError(f"{name} needs every n_grid entry >= {d} for this beta0")
    if "gibbs_iters" in cfg and not cfg["gibbs_burnin"] < cfg["gibbs_iters"]:
        raise ValueError("gibbs_burnin must be below gibbs_iters")
    # arrays whose length is a product of sizes: the n x d design of the LASSO
    # experiments, the LASSO sampler's draws of beta, tau2 and sigma2 after
    # burn-in, and fig1's table of x and one density per posterior
    arrays = []
    if "beta0" in cfg:
        arrays.append(("max(n_grid) * len(beta0)", max(cfg["n_grid"]) * len(cfg["beta0"])))
    if "gibbs_iters" in cfg:
        arrays.append(("(gibbs_iters - gibbs_burnin) * (2 * len(beta0) + 1)",
                       (cfg["gibbs_iters"] - cfg["gibbs_burnin"]) * (2 * len(cfg["beta0"]) + 1)))
    if "lambdas" in cfg:
        arrays.append(("grid_points * (len(lambdas) + 3)",
                       cfg["grid_points"] * (len(cfg["lambdas"]) + 3)))
    for what, size in arrays:
        if size > MAX_ELEMENTS:
            raise ValueError(f"{name}: {what} must be at most {MAX_ELEMENTS}, got {size}")


def validate_config(doc) -> dict:
    """Apply defaults, reject unknown keys, values whose type differs from
    the default's and out-of-range values; returns the effective config."""
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    name = doc.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ValueError(f"unknown or missing experiment {name!r}; "
                         f"choose from {sorted(EXPERIMENTS)}")
    _, defaults = EXPERIMENTS[name]
    allowed = set(defaults) | {"experiment", "output_dir"}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, default in defaults.items():
        if key in doc:
            _check_type(key, doc[key], default)
    if not isinstance(doc.get("output_dir", ""), str):
        raise ValueError("output_dir must be a string")
    cfg = dict(defaults)
    cfg.update(doc)
    _check_values(cfg, defaults)
    return cfg


def _config_hash(doc) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def run_experiment(cfg: dict, out_dir: str) -> dict:
    name = cfg["experiment"]
    cols, rows, verdict = EXPERIMENTS[name][0](cfg)
    passed, details = verdict(rows)
    os.makedirs(out_dir, exist_ok=True)
    chash = _config_hash({k: v for k, v in cfg.items() if k != "output_dir"})
    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w") as fh:
        fh.write(f"# config_hash={chash} seed_base={cfg.get('seed_base', 0)} "
                 f"version={__version__}\n")
        fh.write(",".join(cols) + "\n")
        for r in rows:
            fh.write(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                              for v in r) + "\n")
    summary = {"experiment": name, "passed": bool(passed),
               "config_hash": chash, "version": __version__,
               "details": details}
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        # a numpy scalar as its Python value: a bool stays a bool
        json.dump(summary, fh, indent=2, default=lambda v: v.item())
    return summary


def _resolve_out_dir(cfg) -> str:
    out = cfg.get("output_dir", os.path.join("results", cfg["experiment"]))
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        out = os.path.join(root, out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ebib",
                                     description="experiment harness")
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")
    sub.add_parser("list-experiments", help="list known experiment names")
    args = parser.parse_args(argv)

    if args.verb == "list-experiments":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    try:
        with open(args.config) as fh:
            doc = json.load(fh)
        cfg = validate_config(doc)
    except (OSError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2

    if args.verb == "validate":
        print(f"ok: {cfg['experiment']}")
        return 0

    try:
        # an overflow, a division by zero or a NaN from numpy ends the run, as
        # OverflowError and ZeroDivisionError from Python floats do
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            summary = run_experiment(cfg, _resolve_out_dir(cfg))
    except (EbibError, OSError, ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"runtime failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    print(json.dumps({k: summary[k] for k in ("experiment", "passed",
                                              "config_hash")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

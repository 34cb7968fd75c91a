"""Maximizers of the (restricted) marginal likelihood.

Grid search, golden-section on one interval, row-wise Nelder-Mead with seeded
restarts for the Markov family (M4) and the EM-within-Gibbs iteration for the
Bayesian LASSO rate.  The closed-form maximizers (M1, M3) and the plug-in
pseudo estimate are methods of the families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import marginal  # read at call time: a patched markov_log_marginal is seen
from . import rng as rngmod
from .errors import DomainError
from .marginal import log_marginal
from .models import Dataset, box_argmin
from .samplers import GibbsConfig, gibbs_lasso

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class MmleResult:
    lam: object
    objective: float
    converged: bool
    iterations: int
    at_boundary: tuple = ()


def mmle_grid(family, data: Dataset, grid) -> MmleResult:
    """Argmax over a nonempty sequence of lambdas; ties break toward the
    smallest lambda in lexicographic order."""
    if len(grid) == 0:
        raise DomainError("mmle_grid needs a nonempty grid")
    best = None
    for lam in grid:
        val = log_marginal(family, lam, data)
        key = np.asarray(lam, float).ravel()
        if best is None or val > best[0] + 1e-15 or (
            abs(val - best[0]) <= 1e-15 and tuple(key) < tuple(best[2])
        ):
            best = (val, lam, key)
    val, lam, key = best
    grid_arr = [np.asarray(g, float).ravel() for g in grid]
    lo = np.min(grid_arr, axis=0)
    hi = np.max(grid_arr, axis=0)
    at_b = tuple(bool(k == a or k == b) for k, a, b in zip(key, lo, hi))
    return MmleResult(lam=lam, objective=float(val), converged=True,
                      iterations=len(grid), at_boundary=at_b)


def _golden_section(f, lo, hi, tol):
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    iters = 2
    while b - a > tol and iters < 500:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        iters += 1
    x = 0.5 * (a + b)
    return x, f(x), iters, b - a <= tol


def _parabolic_refine(f, x, lo, hi, fx):
    """Sharpen a noise-limited 1-D maximizer by quadratic vertex fitting.

    Near the maximum the objective is flat relative to float noise, so
    trisection stalls; fitting through well-separated points recovers the
    vertex to far better accuracy.  Spacings shrink geometrically to kill the
    cubic-term bias.
    """
    scale = max(abs(x), 1.0)
    for h in (1e-3 * scale, 1e-4 * scale, 2e-5 * scale):
        if x - h < lo or x + h > hi:
            continue
        fp, fm = f(x + h), f(x - h)
        curv = fp - 2.0 * fx + fm
        if not curv < 0:
            continue
        step = -0.5 * h * (fp - fm) / curv
        if abs(step) > h:
            continue
        cand = x + step
        fc = f(cand)
        # accept within float noise: the fitted vertex beats trisection even
        # when the objective values are indistinguishable in double precision
        if fc >= fx - 1e-10 * max(1.0, abs(fx)):
            x, fx = cand, fc
    return x, fx


def mmle_continuous(family, data: Dataset, lo, hi,
                    tol: float = 1e-8, seed: int = 0) -> MmleResult:
    """Continuous maximization over the interval [lo, hi].

    Golden-section search to width ``tol``; a maximizer within ``tol`` of an
    edge is snapped onto it and flagged.  The Markov family (M4) takes [lo, hi]
    for every cell and is searched row by row with ``seed``-derived restarts;
    it does not use ``tol``: the row search runs to xatol 1e-9 and snaps cells
    within 1e-6 of an edge.
    """
    if not lo <= hi:
        raise DomainError("mmle_continuous needs lo <= hi")
    if family.id == "M4":
        return _mmle_m4(family, data, lo, hi, seed)

    def f(lam):
        return log_marginal(family, lam, data)

    if lo == hi:
        return MmleResult(lam=lo, objective=f(lo), converged=True,
                          iterations=1, at_boundary=(True,))
    x, fx, iters, ok = _golden_section(f, lo, hi, tol)
    x, fx = _parabolic_refine(f, x, lo, hi, fx)
    at_lo, at_hi = x - lo <= tol, hi - x <= tol
    if at_lo or at_hi:
        x = lo if at_lo else hi
        fx = f(x)
    return MmleResult(lam=x, objective=fx, converged=ok, iterations=iters,
                      at_boundary=(at_lo or at_hi,))


def _mmle_m4(family, data, lo, hi, seed):
    """Row-wise Nelder-Mead: Dirichlet rows enter the marginal independently."""
    K = family.K
    counts = family.transition_counts(data)
    alpha_hat = np.empty((K, K))
    total_iters = 0
    conv = True
    for i in range(K):
        row_counts = counts[i : i + 1]

        def row_obj(a):
            return -marginal.markov_log_marginal(row_counts, a[None, :])

        g = rngmod.stream(seed, "mmle-m4-row", i)
        alpha_hat[i], iters, ok = box_argmin(row_obj, np.full(K, lo), np.full(K, hi),
                                             g, 8000, 1e-9)
        total_iters += iters
        conv = conv and ok
    near_lo = alpha_hat - lo <= 1e-6
    near_hi = hi - alpha_hat <= 1e-6
    alpha_hat = np.where(near_lo, lo, np.where(near_hi, hi, alpha_hat))
    obj = marginal.markov_log_marginal(counts, alpha_hat)
    return MmleResult(lam=alpha_hat, objective=obj, converged=conv,
                      iterations=total_iters,
                      at_boundary=tuple((near_lo | near_hi).ravel().tolist()))


def lasso_mmle_em(data: Dataset, init_lam: float, gibbs_cfg: GibbsConfig,
                  em_steps: int = 30, sigma2: float | None = None) -> MmleResult:
    """Monte Carlo EM for the Laplace rate hyperparameter.

    E-step: Gibbs draws of the latent scales tau2 at the current rate;
    M-step: lam <- sqrt(2 d / sum_j E[tau_j2]).  Convergence is declared after
    three consecutive relative moves below 1e-3.
    """
    if init_lam <= 0:
        raise DomainError("init_lam must be positive")
    d = data.X.shape[1]
    lam = float(init_lam)
    calm = 0
    converged = False
    steps = 0
    for t in range(em_steps):
        cfg = GibbsConfig(iters=gibbs_cfg.iters, burnin=gibbs_cfg.burnin,
                          seed=rngmod.stream(gibbs_cfg.seed, "em-step", t).integers(2**31))
        chain = gibbs_lasso(data, lam, sigma2=sigma2, cfg=cfg)
        tau2_mean = chain.draws[:, d : 2 * d].mean(axis=0)
        new_lam = math.sqrt(2.0 * d / float(np.sum(tau2_mean)))
        rel = abs(new_lam - lam) / lam
        lam = new_lam
        steps = t + 1
        calm = calm + 1 if rel < 1e-3 else 0
        if calm >= 3:
            converged = True
            break
    return MmleResult(lam=lam, objective=math.nan, converged=converged,
                      iterations=steps)

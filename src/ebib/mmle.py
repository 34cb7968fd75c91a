"""Maximizers of the (restricted) marginal likelihood.

Grid search, golden-section (1-D), Nelder-Mead with seeded restarts (multi-D),
the EM-within-Gibbs iteration for the Bayesian LASSO rate, and the plug-in
pseudo estimate obtained by evaluating the oracle formula at the MLE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .errors import DomainError
from .marginal import log_marginal
from .models import Dataset
from .samplers import GibbsConfig, gibbs_lasso

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RestrictedDomain:
    """Search region: per-coordinate closed intervals, or an explicit grid."""

    box: tuple = ()
    grid: tuple = ()

    def __post_init__(self):
        for lo, hi in self.box:
            if not lo <= hi:
                raise DomainError("box intervals must satisfy lo <= hi")
        if not self.box and not self.grid:
            raise DomainError("domain needs a box or a grid")


@dataclass
class MmleResult:
    lam: object
    objective: float
    converged: bool
    iterations: int
    at_boundary: tuple = ()
    trace: list = field(default_factory=list)


def mmle_grid(family, data: Dataset, domain: RestrictedDomain) -> MmleResult:
    """Grid argmax; ties break toward the smallest lambda in lexicographic order."""
    if not domain.grid:
        raise DomainError("mmle_grid needs an explicit grid")
    best = None
    for lam in domain.grid:
        val = log_marginal(family, lam, data)
        key = np.asarray(lam, float).ravel()
        if best is None or val > best[0] + 1e-15 or (
            abs(val - best[0]) <= 1e-15 and tuple(key) < tuple(best[2])
        ):
            best = (val, lam, key)
    val, lam, key = best
    grid_arr = [np.asarray(g, float).ravel() for g in domain.grid]
    lo = np.min(grid_arr, axis=0)
    hi = np.max(grid_arr, axis=0)
    at_b = tuple(bool(k == a or k == b) for k, a, b in zip(key, lo, hi))
    return MmleResult(lam=lam, objective=float(val), converged=True,
                      iterations=len(domain.grid), at_boundary=at_b)


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


def mmle_continuous(family, data: Dataset, domain: RestrictedDomain,
                    tol: float = 1e-8, seed: int = 0) -> MmleResult:
    """Continuous maximization over the domain box.

    1-D boxes use golden-section to width ``tol``; multi-D boxes use
    Nelder-Mead from 5 seed-derived restarts.  Maximizers within ``tol`` of a
    box edge are snapped onto it and flagged.
    """
    if not domain.box:
        raise DomainError("mmle_continuous needs a box domain")
    box = list(domain.box)
    if family.id == "M4":
        return _mmle_m4(family, data, box, seed)

    def f(lam):
        return log_marginal(family, lam, data)

    if len(box) == 1:
        lo, hi = box[0]
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
    # multi-dimensional Nelder-Mead with restarts
    from scipy.optimize import minimize

    g = rngmod.stream(seed, "mmle-restarts")
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    starts = [0.5 * (lo + hi)] + [g.uniform(lo, hi) for _ in range(4)]
    best = None
    total_iters = 0
    conv = False
    for x0 in starts:
        res = minimize(lambda x: -f(np.clip(x, lo, hi)), x0,
                       method="Nelder-Mead", bounds=list(zip(lo, hi)),
                       options={"maxiter": 5000, "xatol": tol, "fatol": 1e-12})
        total_iters += res.nit
        conv = conv or bool(res.success)
        if best is None or -res.fun > best[0]:
            best = (-res.fun, np.clip(res.x, lo, hi))
    x = best[1]
    at_b = []
    for k in range(x.size):
        near_lo, near_hi = x[k] - lo[k] <= tol, hi[k] - x[k] <= tol
        if near_lo:
            x[k] = lo[k]
        elif near_hi:
            x[k] = hi[k]
        at_b.append(bool(near_lo or near_hi))
    return MmleResult(lam=x, objective=f(x), converged=conv,
                      iterations=total_iters, at_boundary=tuple(at_b))


def _mmle_m4(family, data, box, seed):
    """Row-wise Nelder-Mead: Dirichlet rows enter the marginal independently."""
    from scipy.optimize import minimize

    from .marginal import markov_log_marginal

    K = family.K
    if len(box) == 1:
        box = box * (K * K)
    if len(box) != K * K:
        raise DomainError("M4 box must have 1 or K*K intervals")
    lo = np.array([b[0] for b in box]).reshape(K, K)
    hi = np.array([b[1] for b in box]).reshape(K, K)
    counts = data.counts
    alpha_hat = np.empty((K, K))
    total_iters = 0
    conv = True
    for i in range(K):
        row_counts = counts[i : i + 1]

        def row_obj(a):
            a = np.clip(a, lo[i], hi[i])
            return -markov_log_marginal(row_counts, a[None, :])

        g = rngmod.stream(seed, "mmle-m4-row", i)
        starts = [np.ones(K)] + [g.uniform(lo[i], np.minimum(hi[i], 10.0))
                                 for _ in range(4)]
        best = None
        for x0 in starts:
            res = minimize(row_obj, x0, method="Nelder-Mead",
                           bounds=list(zip(lo[i], hi[i])),
                           options={"maxiter": 8000, "xatol": 1e-9,
                                    "fatol": 1e-12})
            total_iters += res.nit
            conv = conv and bool(res.success)
            if best is None or res.fun < best[0]:
                best = (res.fun, np.clip(res.x, lo[i], hi[i]))
        alpha_hat[i] = best[1]
    snap_tol = 1e-6
    at_b = []
    for i in range(K):
        for j in range(K):
            near_lo = alpha_hat[i, j] - lo[i, j] <= snap_tol
            near_hi = hi[i, j] - alpha_hat[i, j] <= snap_tol
            if near_lo:
                alpha_hat[i, j] = lo[i, j]
            elif near_hi:
                alpha_hat[i, j] = hi[i, j]
            at_b.append(bool(near_lo or near_hi))
    obj = markov_log_marginal(counts, alpha_hat)
    return MmleResult(lam=alpha_hat, objective=obj, converged=conv,
                      iterations=total_iters, at_boundary=tuple(at_b))


def m1_closed_form_mmle(data: Dataset, sigma2: float) -> float:
    """Stationary point of the exact normal-mean marginal, truncated at 0."""
    ybar = float(np.mean(data.y))
    return max(0.0, ybar**2 - sigma2 / data.n)


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
    trace = [lam]
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
        trace.append(lam)
        steps = t + 1
        calm = calm + 1 if rel < 1e-3 else 0
        if calm >= 3:
            converged = True
            break
    return MmleResult(lam=lam, objective=math.nan, converged=converged,
                      iterations=steps, trace=trace)


def pseudo_mmle(family, data: Dataset):
    """Plug-in hyperparameter: the oracle formula evaluated at the MLE."""
    return family.pseudo_hyperparameter(data)

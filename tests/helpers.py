"""Shared test helpers: the references that library kernels are checked
against (the dense Gaussian log-density, the recursive adaptive Simpson rule,
a central-difference gradient, a dense-trapezoid L1 distance, Gauss-Hermite
quadrature of the M1 marginal, the one-call-per-draw or one-call-per-
coordinate forms of the M1 and M4 simulations and the M4 and M5 marginals,
the array forms of the M4 marginal, the Normal kernels' operands and the
one-lam mixture enumeration, and the former bodies of the mixture's cluster
marginal and allocation mass), a small run of each experiment and the
environment of a child interpreter."""

import math
import os
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from ebib.errors import AccuracyError, DomainError
from ebib.numerics import (QUAD_ABS_TOL, QUAD_MAX_DEPTH, log_gamma, log_ndtr,
                           rank_one_gaussian_logpdf)


def gaussian_logpdf(y, mean, cov) -> float:
    """Dense multivariate Gaussian log-density via Cholesky."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    r = y - np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise DomainError("covariance matrix is not positive definite") from exc
    z = solve_triangular(chol, r, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (r.size * math.log(2.0 * math.pi) + logdet + float(z @ z))


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    """Returns (estimate, converged); the caller raises on failure so the
    exception can carry the best estimate of the full integral."""
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0, True
    if depth <= 0:
        return left + right + err / 15.0, False
    lv, lok = _adaptive(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1)
    rv, rok = _adaptive(f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1)
    return lv + rv, lok and rok


def recursive_simpson(f, a: float, b: float) -> float:
    """Integral of a scalar f over [a, b] by recursive adaptive Simpson at
    ``QUAD_ABS_TOL`` and ``QUAD_MAX_DEPTH``: the rule that
    `ebib.numerics.integrate` runs level by level, one abscissa per call."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("integrate requires finite endpoints")
    if not a < b:
        raise DomainError("integrate requires a < b")
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    val, ok = _adaptive(f, a, fa, b, fb, m, fm, whole, QUAD_ABS_TOL, QUAD_MAX_DEPTH)
    if not ok:
        raise AccuracyError(
            "adaptive Simpson: max_depth exhausted before reaching abs_tol",
            estimate=val,
        )
    return val


def finite_diff_gradient(f, x, h: float = 1e-5):
    """Central-difference gradient of a scalar function on R^d."""
    if not h > 0:
        raise DomainError("h must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return grad


def l1_distance_trapezoid(p, q, points: int = 2_000_001) -> float:
    """L1 distance of two Gaussian posteriors by a trapezoid of ``points``
    abscissae spanning 10 sd either side of both means."""
    lo = min(p.mean - 10.0 * p.sd, q.mean - 10.0 * q.sd)
    hi = max(p.mean + 10.0 * p.sd, q.mean + 10.0 * q.sd)
    x = np.linspace(lo, hi, points)
    return float(np.trapezoid(np.abs(p.pdf(x) - q.pdf(x)), x))


def m1_quadrature_log_marginal(family, lam, data) -> float:
    """log m_lam(y) of the normal-mean family (M1) by 64-node Gauss-Hermite
    quadrature against a Gaussian weight placed where likelihood * prior
    concentrates, not on the prior scale."""
    y = data.y
    s2 = family.sigma2
    n = y.size
    mode = n * lam * float(np.mean(y)) / (n * lam + s2)
    scale = math.sqrt(2.0 * lam * s2 / (n * lam + s2))

    def log_g(theta):
        return (
            -0.5 * n * math.log(2.0 * math.pi * s2)
            - 0.5 * float(np.sum((y - theta) ** 2)) / s2
            - 0.5 * math.log(2.0 * math.pi * lam)
            - 0.5 * theta * theta / lam
        )

    log_g0 = log_g(mode)
    # the Gaussian weight is factored back in, so the sum is of the plain integrand
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    vals = np.array([math.exp(log_g(mode + scale * x) - log_g0) for x in nodes])
    val = float(np.sum(weights * np.exp(nodes**2) * vals))
    return math.log(val) + math.log(scale) + log_g0


def normal_mean_rows(theta0, sigma2, gens, n):
    """One M1 dataset of n draws per generator, one ``g.normal`` call each."""
    rows = [g.normal(float(theta0), math.sqrt(sigma2), size=n) for g in gens]
    return np.array(rows, dtype=float).reshape(len(rows), n)


def markov_path(P, n, g):
    """An n-step path of the chain with transition rows P, one ``g.choice``
    call per step from a ``g.integers`` start, and its transition counts."""
    P = np.asarray(P, dtype=float)
    K = P.shape[0]
    path = np.empty(n + 1, dtype=np.int64)
    path[0] = g.integers(K)
    for t in range(n):
        path[t + 1] = g.choice(K, p=P[path[t]])
    counts = np.zeros((K, K), dtype=np.int64)
    np.add.at(counts, (path[:-1], path[1:]), 1)
    return path, counts


def markov_log_marginal(counts, alpha) -> float:
    """The Dirichlet-multinomial log marginal of M4 on numpy rows and scalars,
    each row's cell terms added by the builtin ``sum``."""
    counts = np.asarray(counts, dtype=np.int64)
    alpha = np.asarray(alpha, dtype=float)
    total = 0.0
    for i in range(counts.shape[0]):
        a, c = alpha[i], counts[i]
        total += log_gamma(a.sum()) - log_gamma(a.sum() + c.sum())
        total += sum(log_gamma(aj + cj) - log_gamma(aj) for aj, cj in zip(a, c))
    return total


def markov_log_marginal_on_arrays(counts, alpha) -> float:
    """The M4 log marginal with numpy row sums and a checked ``log_gamma``
    call per term: the form that `ebib.marginal.markov_log_marginal` equals
    with one reduction per call and unchecked ``math.lgamma``."""
    counts = np.asarray(counts, dtype=np.int64)
    alpha = np.ascontiguousarray(alpha, dtype=float)
    total = 0.0
    for a_sum, c_sum, a, c in zip(alpha.sum(axis=1).tolist(), counts.sum(axis=1).tolist(),
                                  alpha.tolist(), counts.tolist()):
        total += log_gamma(a_sum) - log_gamma(a_sum + c_sum)
        row = 0.0
        for aj, cj in zip(a, c):
            row += log_gamma(aj + cj) - log_gamma(aj)
        total += row
    return total


def norm_operands(x, loc, scale):
    """x, loc and scale of a Normal kernel as float arrays of at least one
    dimension, nan for every scale <= 0, and whether all three were scalars:
    the general path of `ebib.numerics._operands`, for every input."""
    x = np.asarray(x, dtype=float)
    loc = np.asarray(loc, dtype=float)
    scale = np.asarray(scale, dtype=float)
    if x.ndim or loc.ndim or scale.ndim:
        return *np.atleast_1d(x, loc, np.where(scale > 0, scale, np.nan)), False
    scale = scale.reshape(1) if scale > 0 else np.full(1, np.nan)
    return x.reshape(1), loc.reshape(1), scale, True


def mixture_marginal_exact_one_lam(data, lam: float, family) -> float:
    """Exact log m_lam of the overfitted mixture for one lam, by a walk of
    all K^n allocations that forms each one's weight term as it reaches it:
    the per-lam form that `ebib.marginal.mixture_marginal_exact` equals on a
    grid of lams with one walk."""
    y = np.asarray(data.y, float)
    n, K = y.size, family.K
    cv, lm, lv = family.comp_var, family.loc_mean, family.loc_var
    yc = y - lm
    lg_lam = log_gamma(lam)
    alloc_const = log_gamma(K * lam) - log_gamma(K * lam + n)
    counts = np.zeros(K, dtype=np.int64)
    sums = np.zeros(K)
    sqs = np.zeros(K)
    cluster_lm = np.zeros(K)
    terms = []

    def recurse(i, running):
        if i == n:
            alloc = alloc_const + sum(log_gamma(lam + c) - lg_lam for c in counts)
            terms.append(alloc + running)
            return
        for j in range(K):
            prev = cluster_lm[j]
            counts[j] += 1
            sums[j] += yc[i]
            sqs[j] += yc[i] ** 2
            cluster_lm[j] = rank_one_gaussian_logpdf(counts[j], sums[j], sqs[j], cv, lv)
            recurse(i + 1, running - prev + cluster_lm[j])
            counts[j] -= 1
            sums[j] -= yc[i]
            sqs[j] -= yc[i] ** 2
            cluster_lm[j] = prev

    recurse(0, 0.0)
    terms = np.asarray(terms)
    mx = terms.max()
    return float(mx + math.log(np.sum(np.exp(terms - mx))))


def cluster_log_marginal_reference(m, S, Q, comp_var, loc_var) -> float:
    """The log-marginal of the m values of one mixture cluster, whose sum is
    S and sum of squares Q, as `ebib.marginal.mixture_marginal_exact` formed
    it before it called the shared rank-one kernel (0.0 for an empty cluster,
    where the kernel gives -0.0)."""
    if m == 0:
        return 0.0
    quad = (Q - loc_var * S * S / (comp_var + m * loc_var)) / comp_var
    logdet = m * math.log(comp_var) + math.log1p(m * loc_var / comp_var)
    return -0.5 * (m * math.log(2.0 * math.pi) + logdet + quad)


def log_alloc_mass_reference(vec, lam: float, n: int) -> float:
    """Dirichlet-multinomial log mass of one vector of cluster counts of n
    observations, summed count by count with the builtin ``sum``: the form
    that `ebib.marginal._log_alloc_mass` replaced in the exact enumeration."""
    K = len(vec)
    lg_lam = log_gamma(lam)
    alloc_const = log_gamma(K * lam) - log_gamma(K * lam + n)
    return alloc_const + sum(log_gamma(lam + c) - lg_lam for c in vec)


def laplace_gauss_log_normalizer(bhat: float, colnorm: float, sigma: float, lam: float) -> float:
    """log C(lam): normalizer of exp(-colnorm^2 (b-bhat)^2/(2 sigma^2) - lam|b|/sigma),
    one ``log_ndtr`` call per term.

    C is defined so the integral equals sqrt(2 pi) (sigma/colnorm) C.
    """
    kappa = lam / colnorm
    u = colnorm * bhat / sigma
    t1 = 0.5 * kappa**2 - kappa * u + log_ndtr(u - kappa)
    t2 = 0.5 * kappa**2 + kappa * u + log_ndtr(-u - kappa)
    hi = max(t1, t2)
    return hi + math.log(math.exp(t1 - hi) + math.exp(t2 - hi))


def lasso_log_marginal(lam: float, sigma2: float, X, y) -> float:
    """The closed-form M5 log marginal (orthogonal X, known sigma2), one
    `laplace_gauss_log_normalizer` call per coordinate."""
    norms = np.sqrt(np.diag(X.T @ X))
    s = math.sqrt(sigma2)
    n = y.shape[0]
    bhat = (X.T @ y) / norms**2
    sse = float(np.sum((y - X @ bhat) ** 2))
    out = -0.5 * n * math.log(2.0 * math.pi * s * s) - sse / (2.0 * s * s)
    for sj, bj in zip(norms, bhat):
        out += 0.5 * math.log(2.0 * math.pi) + math.log(s / sj)
        out += math.log(lam / (2.0 * s))
        out += laplace_gauss_log_normalizer(float(bj), float(sj), s, lam)
    return float(out)


# a small run of each experiment, into which tests set edge values
SMALL = {
    "fig1-densities": {"n": 25, "grid_points": 101},
    "table1-lasso": {"n_grid": [30], "seeds": 1, "gibbs_iters": 60, "gibbs_burnin": 20,
                     "em_steps": 2},
    "fig2-lasso-marginals": {"n_grid": [20], "lam_points": 5, "grid_points": 51},
    "mmle-consistency": {"n_grid": [20], "seeds": 1},
    "kl-oracle": {"n": 100, "lam_points": 5, "mc_configs": 2, "mc_reps": 10},
    "merging-rates": {"n_grid": [20], "seeds": 1},
    "predictive-rates": {"n_grid": [20], "seeds": 1},
    "credible-discrepancy": {"n_grid": [20], "seeds": 1},
    "mixture-rate": {"n_grid": [20], "seeds": 1, "draws": 200},
    "markov-sparsity": {"n": 200},
}


SRC = Path(__file__).resolve().parents[1] / "src"


def child_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, so
    that a child interpreter imports the ebib under test even when ebib is not
    installed (pytest's ``pythonpath`` setting reaches only its own process)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env

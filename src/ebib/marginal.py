"""Marginal likelihood m_lam(y) evaluation.

``log_marginal`` is the closed form, the family's own ``log_marginal`` (M1,
M2, M3, M4 and M5 with known sigma).  Reference computations check it and
the families without one: Gauss-Hermite quadrature for M1, exact allocation
enumeration for mixtures at tiny n, and posterior importance reweighting
across a concentration grid for mixtures at realistic n
(``mixture_marginal_profile``, which returns estimates with standard errors).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, DomainError, EstimationError
from .models import Dataset
from .numerics import log_gamma

ENUMERATION_CAP = 1 << 20
MIN_RELIABLE_ESS = 50.0


def log_marginal(family, lam, data: Dataset) -> float:
    """log m_lam(y) in closed form."""
    return family.log_marginal(lam, data)


def m1_quadrature_log_marginal(family, lam, data) -> float:
    """log m_lam(y) of the normal-mean family (M1) by quadrature."""
    # Gauss-Hermite against a Gaussian weight adapted to the integrand: nodes
    # are placed where likelihood * prior concentrates, not on the prior scale
    lam = family.validate_hyperparam(lam)
    y = data.y
    s2 = family.sigma2
    n = y.size
    mode = n * lam * float(np.mean(y)) / (n * lam + s2)
    v = lam * s2 / (n * lam + s2)
    scale = math.sqrt(2.0 * v)

    def log_g(theta):
        return (
            -0.5 * n * math.log(2.0 * math.pi * s2)
            - 0.5 * float(np.sum((y - theta) ** 2)) / s2
            - 0.5 * math.log(2.0 * math.pi * lam)
            - 0.5 * theta * theta / lam
        )

    log_g0 = log_g(mode)
    # 64 nodes; the Gaussian weight is factored back in, so the sum is of the
    # plain integrand
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    vals = np.array([math.exp(log_g(mode + scale * x) - log_g0) for x in nodes])
    val = float(np.sum(weights * np.exp(nodes**2) * vals))
    if not val > 0:
        raise EstimationError("quadrature marginal underflowed; use closed form")
    return math.log(val) + math.log(scale) + log_g0


# ---------------------------------------------------------------------------
# Markov / Dirichlet


def markov_log_marginal(counts, alpha) -> float:
    """log u(y, alpha): product over rows of Dirichlet-multinomial mass ratios.

    The multinomial path constant is fixed to 0, matching the likelihood
    convention for this family.
    """
    counts = np.asarray(counts, dtype=np.int64)
    alpha = np.asarray(alpha, dtype=float)
    total = 0.0
    for i in range(counts.shape[0]):
        a, c = alpha[i], counts[i]
        total += log_gamma(a.sum()) - log_gamma(a.sum() + c.sum())
        total += sum(log_gamma(aj + cj) - log_gamma(aj) for aj, cj in zip(a, c))
    return total


def markov_ray_derivative(counts, top) -> np.ndarray:
    """Per row, d/dt log u_i(t * p_i / max p_i) at t = ``top``; p_i = row proportions.

    Along this ray the row's dominant cell has concentration t and the others
    keep the empirical proportions; zero-count cells get concentration 0 and
    drop out of the row.  A positive value at the upper box edge means the
    row marginal still rises there, so a box-constrained maximizer parks the
    dominant cell on that edge.  Rows with fewer than two positive cells are
    flat along the ray and give 0.
    """
    from scipy.special import digamma

    counts = np.asarray(counts, dtype=float)
    out = np.zeros(counts.shape[0])
    for i, c in enumerate(counts):
        c = c[c > 0]
        if c.size < 2:
            continue
        scale = c / c.max()  # d alpha_j / dt
        a, a_sum = top * scale, top * scale.sum()
        out[i] = (np.sum(scale * (digamma(a + c) - digamma(a)))
                  - scale.sum() * (digamma(a_sum + c.sum()) - digamma(a_sum)))
    return out


def markov_log_marginal_factorials(counts, alpha) -> float:
    """Independent cross-check: ascending-factorial product form of u(y, alpha)."""
    counts = np.asarray(counts, dtype=np.int64)
    alpha = np.asarray(alpha, dtype=float)
    total = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            for k in range(counts[i, j]):
                total += math.log(alpha[i, j] + k)
        row_total = float(alpha[i].sum())
        for k in range(int(counts[i].sum())):
            total -= math.log(row_total + k)
    return total


# ---------------------------------------------------------------------------
# mixtures


def _cluster_log_marginal(m, S, Q, comp_var, loc_var) -> float:
    """Marginal of m observations in one cluster under the conjugate base.

    (m, S, Q) are the count, sum and sum of squares of the centred values
    y - loc_mean; the joint is N(loc_mean 1, comp_var I + loc_var J).
    """
    if m == 0:
        return 0.0
    quad = (Q - loc_var * S * S / (comp_var + m * loc_var)) / comp_var
    logdet = m * math.log(comp_var) + math.log1p(m * loc_var / comp_var)
    return -0.5 * (m * math.log(2.0 * math.pi) + logdet + quad)


def mixture_marginal_exact(data: Dataset, lam: float, family) -> float:
    """Exact log m_lam by summation over all K^n allocations.

    ``family`` (an OverfittedMixture) supplies K, comp_var, loc_mean and
    loc_var (Normal-known-variance components with a Normal prior on their
    locations).  Allocations are walked depth-first with per-cluster
    sufficient statistics updated incrementally.
    """
    if lam <= 0:
        raise DomainError("lam must be positive")
    y = np.asarray(data.y, float)
    n, K = y.size, family.K
    if K**n > ENUMERATION_CAP:
        raise CapacityError(f"K^n = {K**n} exceeds the enumeration cap")
    cv, lm, lv = family.comp_var, family.loc_mean, family.loc_var
    yc = y - lm

    lg_lam = log_gamma(lam)
    alloc_const = log_gamma(K * lam) - log_gamma(K * lam + n)

    counts = np.zeros(K, dtype=np.int64)
    sums = np.zeros(K)
    sqs = np.zeros(K)
    cluster_lm = np.zeros(K)  # running per-cluster log-marginals
    terms = []

    def recurse(i, running):
        if i == n:
            alloc = alloc_const + sum(
                log_gamma(lam + c) - lg_lam for c in counts
            )
            terms.append(alloc + running)
            return
        for j in range(K):
            prev = cluster_lm[j]
            counts[j] += 1
            sums[j] += yc[i]
            sqs[j] += yc[i] ** 2
            cluster_lm[j] = _cluster_log_marginal(counts[j], sums[j], sqs[j], cv, lv)
            recurse(i + 1, running - prev + cluster_lm[j])
            counts[j] -= 1
            sums[j] -= yc[i]
            sqs[j] -= yc[i] ** 2
            cluster_lm[j] = prev

    recurse(0, 0.0)
    terms = np.asarray(terms)
    mx = terms.max()
    return float(mx + math.log(np.sum(np.exp(terms - mx))))


def mixture_marginal_profile(data: Dataset, lam_grid, lam_ref: float,
                             draws: int, seed, family):
    """Relative log-marginal profile log m_lam - log m_lam_ref by reweighting.

    Only the weight prior depends on lam; conditioning on the allocation counts
    integrates it out exactly, so the ratio is the posterior expectation (under
    lam_ref) of A(c; lam)/A(c; lam_ref), where A is the Dirichlet-multinomial
    allocation mass.  These ratios are bounded over the finite count set, unlike
    the raw-weight ratios which have infinite variance for lam < lam_ref.
    ``family`` is the OverfittedMixture whose weight prior lam indexes.
    Returns one record per grid value with ESS-based reliability flags.
    """
    from .samplers import GibbsConfig, effective_sample_size, gibbs_mixture_weights

    lam_grid = [float(v) for v in lam_grid]
    if lam_ref <= 0 or any(v <= 0 for v in lam_grid):
        raise DomainError("concentrations must be positive")
    if any(v > 20.0 * lam_ref or v < lam_ref / 20.0 for v in lam_grid):
        raise DomainError("grid must stay within a factor 20 of lam_ref")
    cfg = GibbsConfig(iters=draws + max(draws // 4, 200),
                      burnin=max(draws // 4, 200), seed=seed)
    chain = gibbs_mixture_weights(data, lam_ref, family, cfg)
    K = family.K
    counts = chain.draws[:, K : 2 * K].astype(np.intp)
    T = counts.shape[0]
    n = data.n

    def log_alloc_mass(lam):
        # counts take the values 0..n: tabulate the log rising factorials
        # log Gamma(lam + c) - log Gamma(lam) once and index them
        lg_lam = log_gamma(lam)
        table = np.array([log_gamma(lam + c) - lg_lam for c in range(n + 1)])
        return (
            log_gamma(K * lam) - log_gamma(K * lam + n)
            + np.sum(table[counts], axis=1)
        )

    ref_mass = log_alloc_mass(lam_ref)
    rows = []
    for lam in lam_grid:
        logw = log_alloc_mass(lam) - ref_mass
        mx = logw.max()
        w = np.exp(logw - mx)
        mean_w = float(np.mean(w))
        est = mx + math.log(mean_w)
        ess = float(np.sum(w)) ** 2 / float(np.sum(w**2))
        # the weights come from a Gibbs chain: deflate the sample size by the
        # autocorrelation time of the weight series
        t_eff = min(effective_sample_size(w), float(T))
        stderr = float(np.std(w, ddof=1)) / (mean_w * math.sqrt(max(t_eff, 1.0)))
        rows.append(
            {
                "lam": lam,
                "delta_logm": est,
                "stderr": stderr,
                "ess": ess,
                "reliable": ess >= MIN_RELIABLE_ESS,
            }
        )
    return rows


def profile_argmax(rows):
    """Restricted-MMLE grid argmax over the reliable points of a profile."""
    ok = [r for r in rows if r["reliable"]]
    if not ok:
        raise EstimationError("every profile point is unreliable")
    best = max(ok, key=lambda r: (r["delta_logm"], -r["lam"]))
    return best["lam"]

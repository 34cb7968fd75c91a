"""Marginal likelihood m_lam(y) evaluation.

``log_marginal`` is the closed form, the family's own ``log_marginal`` (M1,
M2, M3, M4 and M5 with known sigma).  For the mixtures, which have none,
exact allocation enumeration serves at tiny n, and posterior importance
reweighting across a concentration grid at realistic n
(``mixture_marginal_profile``, which returns estimates with standard errors).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, DomainError, EstimationError
from .numerics import log_gamma, rank_one_gaussian_logpdf
from .samplers import GibbsConfig, effective_sample_size, gibbs_mixture_weights

if TYPE_CHECKING:
    from .models import Dataset

ENUMERATION_CAP = 1 << 20
MIN_RELIABLE_ESS = 50.0


def log_marginal(family, lam, data: Dataset) -> float:
    """log m_lam(y) in closed form."""
    return family.log_marginal(lam, data)


# ---------------------------------------------------------------------------
# Markov / Dirichlet


def markov_log_marginal(counts, alpha) -> float:
    """log u(y, alpha): product over rows of Dirichlet-multinomial mass ratios.

    The multinomial path constant is fixed to 0, matching the likelihood
    convention for this family.
    """
    counts = np.asarray(counts, dtype=np.int64)
    # C order: a row-major axis-1 sum adds each row as its own 1-d sum does
    alpha = np.ascontiguousarray(alpha, dtype=float)
    total = 0.0
    for a_sum, a, c in zip(np.add.reduce(alpha, 1).tolist(), alpha.tolist(), counts.tolist()):
        # every argument is positive when these are, so math.lgamma needs no
        # check; otherwise log_gamma raises on the first bad one
        lg = math.lgamma if a_sum > 0 and min(a) > 0 and min(c) >= 0 else log_gamma
        total += lg(a_sum) - lg(a_sum + sum(c))
        # left to right: the builtin sum compensates from Python 3.12 on
        row = 0.0
        for aj, cj in zip(a, c):
            row += lg(aj + cj) - lg(aj)
        total += row
    return total


def markov_ray_derivative(counts, top) -> np.ndarray:
    """Per row, d/dt log u_i(t * p_i / max p_i) at t = ``top``; p_i = row proportions.

    Along this ray the row's dominant cell has concentration t and the others
    keep the empirical proportions; zero-count cells get concentration 0 and
    drop out of the row.  A positive value at the upper box edge means the
    row marginal still rises there, so a box-constrained maximizer parks the
    dominant cell on that edge.  Rows with fewer than two positive cells are
    flat along the ray and give 0.  For an integer count c, the digamma
    difference psi(a + c) - psi(a) is the sum of 1/(a + j) over j < c.
    """
    counts = np.asarray(counts, dtype=np.int64)
    out = np.zeros(counts.shape[0])
    for i, c in enumerate(counts):
        c = c[c > 0]
        if c.size < 2:
            continue
        scale = c / c.max()  # d alpha_j / dt
        a, a_sum = top * scale, top * scale.sum()
        rise = [np.sum(1.0 / (aj + np.arange(cj))) for aj, cj in zip(a, c)]
        out[i] = (np.sum(scale * rise)
                  - scale.sum() * np.sum(1.0 / (a_sum + np.arange(c.sum()))))
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


def _log_alloc_mass(counts, lam, n):
    """Dirichlet-multinomial log mass of each row of ``counts``, the K cluster
    counts of an allocation of n observations, at symmetric concentration lam.
    The log rising factorials log Gamma(lam + c) - log Gamma(lam) of c = 0..n
    are tabulated once; numpy sums a row of fewer than 8 left to right."""
    K = counts.shape[1]
    lg_lam = log_gamma(lam)
    table = np.array([log_gamma(lam + c) - lg_lam for c in range(n + 1)])
    return log_gamma(K * lam) - log_gamma(K * lam + n) + np.sum(table[counts], axis=1)


def mixture_marginal_exact(data: Dataset, lams, family) -> list:
    """Exact log m_lam for each lam of the sequence ``lams``, by summation
    over all K^n allocations.

    ``family`` (an OverfittedMixture) supplies K, comp_var, loc_mean and
    loc_var (Normal-known-variance components with a Normal prior on their
    locations).  Allocations are walked once, depth-first, with the count,
    sum and sum of squares of each cluster's y - loc_mean updated
    incrementally; a cluster's location term is the N(0, comp_var I +
    loc_var J) log-density of those values.  Location terms do not depend on
    lam, and the weight terms depend on it only through the cluster counts,
    so each lam costs one `_log_alloc_mass` of the distinct count vectors.
    """
    lams = [family.validate_hyperparam(v) for v in lams]
    y = np.asarray(data.y, float)
    n, K = y.size, family.K
    if K**n > ENUMERATION_CAP:
        raise CapacityError(f"K^n = {K**n} exceeds the enumeration cap")
    cv, lm, lv = family.comp_var, family.loc_mean, family.loc_var
    yc = (y - lm).tolist()

    counts, sums, sqs = [0] * K, [0.0] * K, [0.0] * K
    cluster_lm = [0.0] * K  # running per-cluster log-marginals
    index = {}  # count vector -> its position in first-seen order
    leaf_counts, leaf_lm = [], []  # per allocation, in walk order

    def recurse(i, running):
        if i == n:
            leaf_counts.append(index.setdefault(tuple(counts), len(index)))
            leaf_lm.append(running)
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
    leaf_counts, leaf_lm = np.asarray(leaf_counts), np.asarray(leaf_lm)
    vecs = np.array(list(index))
    out = []
    for v in lams:
        terms = _log_alloc_mass(vecs, v, n)[leaf_counts] + leaf_lm
        mx = terms.max()
        out.append(float(mx + math.log(np.sum(np.exp(terms - mx)))))
    return out


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
    family.validate_hyperparam(lam_ref)
    lam_grid = [family.validate_hyperparam(v) for v in lam_grid]
    if any(v > 20.0 * lam_ref or v < lam_ref / 20.0 for v in lam_grid):
        raise DomainError("grid must stay within a factor 20 of lam_ref")
    cfg = GibbsConfig(iters=draws + max(draws // 4, 200),
                      burnin=max(draws // 4, 200), seed=seed)
    chain = gibbs_mixture_weights(data, lam_ref, family, cfg)
    K = family.K
    counts = chain.draws[:, K : 2 * K].astype(np.intp)
    ref_mass = _log_alloc_mass(counts, lam_ref, data.n)
    rows = []
    for lam in lam_grid:
        logw = _log_alloc_mass(counts, lam, data.n) - ref_mass
        mx = logw.max()
        w = np.exp(logw - mx)
        mean_w = float(np.mean(w))
        est = mx + math.log(mean_w)
        ess = float(np.sum(w)) ** 2 / float(np.sum(w**2))
        # the weights come from a Gibbs chain: deflate the sample size by the
        # autocorrelation time of the weight series
        t_eff = min(effective_sample_size(w), float(len(counts)))
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

"""Kullback-Leibler divergence KL(p_theta0 || m_lam) and its grid minimizer.

Exact closed forms for the Gaussian families via low-rank identities; Monte
Carlo over replicate datasets otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .marginal import log_marginal
from .samplers import simulate


@dataclass
class KlProfile:
    lam_grid: list
    kl_values: np.ndarray
    stderrs: np.ndarray
    minimizer: object
    min_value: float
    ambiguous: bool = False
    candidates: list = field(default_factory=list)

    def to_csv(self, path):
        rows = np.column_stack([
            np.asarray([np.atleast_1d(v)[0] for v in self.lam_grid], float),
            self.kl_values,
            self.stderrs,
        ])
        np.savetxt(path, rows, delimiter=",", header="lambda,kl,stderr",
                   comments="")


def kl_exact_gaussian(family, theta0, lam, n: int, data=None) -> float:
    """Closed-form KL between p_theta0 and the lam-marginal (Gaussian cases).

    Regression families take their fixed design from ``data``.
    """
    return family.kl_exact(theta0, lam, n, data)


def kl_monte_carlo(family, theta0, lam, n: int, reps: int, seed):
    """Monte Carlo KL: mean of log p_theta0(Y) - log m_lam(Y) over replicates.

    Returns (estimate, std_error); the standard error is NaN when reps == 1.
    """
    if reps < 1:
        raise DomainError("reps must be >= 1")
    vals = np.empty(reps)
    for r in range(reps):
        data = simulate(family, theta0, n, seed=(seed, "kl-rep", r))
        ll = family.log_likelihood(theta0, data)
        vals[r] = ll - log_marginal(family, lam, data)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(reps)) if reps > 1 else math.nan
    return est, se


def kl_minimizer(family, theta0, n: int, lam_grid, strategy="exact",
                 reps: int = 200, seed=0) -> KlProfile:
    """KL profile over a hyperparameter grid with its minimizer.

    ``strategy`` is "exact" (closed-form Gaussian KL) or "monte-carlo".  With
    noisy values, grid points whose confidence band overlaps the minimum leave
    the minimizer ambiguous; the candidate interval is then reported.
    """
    lam_grid = list(lam_grid)
    if not lam_grid:
        raise DomainError("empty grid")
    vals = np.empty(len(lam_grid))
    ses = np.zeros(len(lam_grid))
    for i, lam in enumerate(lam_grid):
        if strategy == "exact":
            vals[i] = kl_exact_gaussian(family, theta0, lam, n)
        elif strategy == "monte-carlo":
            vals[i], ses[i] = kl_monte_carlo(family, theta0, lam, n, reps, seed)
        else:
            raise DomainError(f"unknown KL strategy {strategy!r}")
    imin = int(np.argmin(vals))
    ambiguous = False
    candidates = []
    if strategy == "monte-carlo":
        hi_min = vals[imin] + 3.0 * ses[imin]
        for i in range(len(lam_grid)):
            if i != imin and vals[i] - 3.0 * ses[i] <= hi_min:
                candidates.append(lam_grid[i])
        ambiguous = bool(candidates)
        if ambiguous:
            candidates.append(lam_grid[imin])
    return KlProfile(
        lam_grid=lam_grid, kl_values=vals, stderrs=ses,
        minimizer=lam_grid[imin], min_value=float(vals[imin]),
        ambiguous=ambiguous, candidates=sorted(candidates),
    )

"""Kullback-Leibler divergence KL(p_theta0 || m_lam) and its profile over a grid.

The grid profile takes M1's exact closed form ``kl_exact`` (M2's needs the
design, which the profile does not take); Monte Carlo over replicates checks it.

The Monte Carlo estimate runs its replicates in blocks.  Replicate r draws
from the stream keyed (*seed, "kl-rep", r, "data"), as ``samplers.simulate``
would give it.  A block's generators come from one ``rng.streams`` call, the
family's ``simulate_rows`` fills one row of a (rows, n) array per replicate,
and the family scores the block with one ``log_likelihood`` and one
``log_marginal`` call.  A block holds at most ``_BLOCK_ELEMENTS`` draws, so
memory does not grow with the replicate count, and the output is the same
bit for bit as one replicate at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DomainError
from .marginal import log_marginal
from .models import Dataset

# draws held by one block of Monte Carlo replicates (8 MiB of doubles)
_BLOCK_ELEMENTS = 1 << 20


@dataclass
class KlProfile:
    lam_grid: list
    kl_values: np.ndarray

    def to_csv(self, path):
        rows = np.column_stack([
            np.asarray([np.atleast_1d(v)[0] for v in self.lam_grid], float),
            self.kl_values,
            np.zeros(len(self.lam_grid)),  # stderr: the profile is exact
        ])
        np.savetxt(path, rows, delimiter=",", header="lambda,kl,stderr",
                   comments="")


def kl_monte_carlo(family, theta0, lam, n: int, reps: int, seed):
    """Monte Carlo KL: mean of log p_theta0(Y) - log m_lam(Y) over replicates.

    Returns (estimate, std_error); the standard error is NaN when reps == 1.
    Only families with ``simulate_rows`` (M1) are supported; the others raise
    ``CapabilityError``.
    """
    if reps < 1 or n < 0:
        raise DomainError("reps must be >= 1 and n >= 0")
    prefix = (*rng.flatten(seed), "kl-rep")
    rows = max(1, _BLOCK_ELEMENTS // max(n, 1))
    vals = np.empty(reps)
    for start in range(0, reps, rows):
        stop = min(start + rows, reps)
        gens = rng.streams(prefix, range(start, stop), ("data",))
        data = Dataset(y=family.simulate_rows(theta0, gens, np.empty((stop - start, n))))
        vals[start:stop] = (family.log_likelihood(theta0, data)
                            - log_marginal(family, lam, data))
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(reps)) if reps > 1 else math.nan
    return est, se


def kl_minimizer(family, theta0, n: int, lam_grid) -> KlProfile:
    """Closed-form Gaussian KL profile over a hyperparameter grid."""
    lam_grid = list(lam_grid)
    if not lam_grid:
        raise DomainError("empty grid")
    vals = np.array([family.kl_exact(theta0, lam, n) for lam in lam_grid])
    return KlProfile(lam_grid=lam_grid, kl_values=vals)

"""Shared test helpers: the dense Gaussian log-density that the rank-one
kernel is checked against, and the environment of a child interpreter."""

import math
import os
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from ebib.errors import DomainError


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


SRC = Path(__file__).resolve().parents[1] / "src"


def child_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, so
    that a child interpreter imports the ebib under test even when ebib is not
    installed (pytest's ``pythonpath`` setting reaches only its own process)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env

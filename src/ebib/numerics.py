"""Shared numerical kernels: quadrature, special functions, the Normal
distribution, the rank-one Gaussian log-density and finite differences.

All routines are pure functions; nothing here holds mutable state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, DomainError

# the absolute tolerance and the bisection depth of `integrate`
QUAD_ABS_TOL = 1e-9
QUAD_MAX_DEPTH = 40


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


# Normal distribution N(loc, scale^2).  Each kernel repeats the arithmetic of
# scipy's `norm` distribution step for step, so the results are bit-identical,
# without its generic per-call argument handling, which costs several times the
# arithmetic on a scalar, and without importing the scipy module that holds
# `norm`, which would dominate the start-up time and memory of `import ebib`.
# The cdf, logcdf and ppf kernels import their `scipy.special` ufunc on call,
# so a run that needs none of them never loads scipy.
_NORM_C = np.sqrt(2 * np.pi)
_NORM_LOGC = np.log(_NORM_C)


def _operands(x, loc, scale):
    """x, loc and scale as float arrays of at least one dimension, with nan
    for every scale <= 0 (scipy's value there), and whether all three were
    scalars.

    scipy's argsreduce hands its kernels 1-d arrays.  On numpy scalars the
    same arithmetic is not the same: -z**2 then goes through the C pow(), and
    the last bit of the density can differ.
    """
    x = np.asarray(x, dtype=float)
    loc = np.asarray(loc, dtype=float)
    scale = np.asarray(scale, dtype=float)
    if x.ndim or loc.ndim or scale.ndim:
        return *np.atleast_1d(x, loc, np.where(scale > 0, scale, np.nan)), False
    scale = scale.reshape(1) if scale > 0 else np.full(1, np.nan)
    return x.reshape(1), loc.reshape(1), scale, True


def norm_pdf(x, loc=0.0, scale=1.0):
    x, loc, scale, scalar = _operands(x, loc, scale)
    z = (x - loc) / scale
    out = np.exp(-z**2 / 2.0) / _NORM_C / scale
    return out[0] if scalar else out


def norm_logpdf(x, loc=0.0, scale=1.0):
    x, loc, scale, scalar = _operands(x, loc, scale)
    z = (x - loc) / scale
    out = -z**2 / 2.0 - _NORM_LOGC - np.log(scale)
    return out[0] if scalar else out


def norm_cdf(x, loc=0.0, scale=1.0):
    from scipy.special import ndtr

    x, loc, scale, scalar = _operands(x, loc, scale)
    out = ndtr((x - loc) / scale)
    return out[0] if scalar else out


def norm_logcdf(x, loc=0.0, scale=1.0):
    from scipy.special import log_ndtr

    x, loc, scale, scalar = _operands(x, loc, scale)
    out = log_ndtr((x - loc) / scale)
    return out[0] if scalar else out


def norm_ppf(q, loc=0.0, scale=1.0):
    """Quantile; -inf at q = 0, inf at q = 1 and nan outside [0, 1]."""
    from scipy.special import ndtri

    q, loc, scale, scalar = _operands(q, loc, scale)
    out = ndtri(q) * scale + loc
    return out[0] if scalar else out


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


def integrate(f, a: float, b: float) -> float:
    """Integral of f over the finite interval [a, b] by adaptive Simpson to
    ``QUAD_ABS_TOL`` in at most ``QUAD_MAX_DEPTH`` bisections.  The error test
    compares a panel with its halves and can pass falsely: no guarantee."""
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


def low_rank_gaussian_logpdf(y, mean, sigma2: float, lam: float):
    """Log-density of N(mean, sigma2*I + lam*11^t) at y.

    Uses the rank-one determinant lemma and Sherman-Morrison, so the cost is
    O(n) instead of O(n^3).  The last axis of ``y`` is the n observations:
    a 1-d ``y`` gives a float, an (rows, n) ``y`` one value per row, each
    equal to the 1-d call on that row bit for bit.
    """
    if not sigma2 > 0:
        raise DomainError("sigma2 must be positive")
    if lam < 0:
        raise DomainError("lam must be nonnegative")
    # C order keeps each row's sum and dot product in the 1-d reduction order
    r = np.subtract(np.asarray(y, dtype=float), np.asarray(mean, dtype=float),
                    order="C")
    n = r.shape[-1]
    s = np.sum(r, axis=-1)
    rr = (r[..., None, :] @ r[..., :, None])[..., 0, 0]
    quad = (rr - lam * s * s / (sigma2 + n * lam)) / sigma2
    logdet = n * math.log(sigma2) + math.log1p(n * lam / sigma2)
    out = -0.5 * (n * math.log(2.0 * math.pi) + logdet + quad)
    return float(out) if r.ndim == 1 else out


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

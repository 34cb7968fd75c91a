"""Shared numerical kernels: quadrature, special functions, the Normal
distribution and the rank-one Gaussian log-density.

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


def integrate(f, a: float, b: float) -> float:
    """Integral of f over the finite interval [a, b] by adaptive Simpson to
    ``QUAD_ABS_TOL`` in at most ``QUAD_MAX_DEPTH`` bisections.  The error test
    compares a panel with its halves and can pass falsely: no guarantee.

    ``f`` maps a 1-d array of abscissae to the array of their values.  The
    bisection runs one level at a time: each level is one call of ``f`` on the
    new midpoints of all its open panels.  The panel values are then summed
    bottom-up, left half + right half at every split, so the result, and the
    estimate an `AccuracyError` carries, equal those of the depth-first
    recursive rule bit for bit.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("integrate requires finite endpoints")
    if not a < b:
        raise DomainError("integrate requires a < b")
    x = np.array([a, 0.5 * (a + b), b])
    fx = f(x)
    whole = (b - a) / 6.0 * (fx[0] + 4.0 * fx[1] + fx[2])
    panels = np.concatenate([x, fx, [whole]])[:, None]
    val, ok = _panel_values(f, panels, QUAD_ABS_TOL, QUAD_MAX_DEPTH)
    if not ok:
        raise AccuracyError(
            "adaptive Simpson: max_depth exhausted before reaching abs_tol",
            estimate=float(val[0]),
        )
    return float(val[0])


# The most panels one level of `_panel_values` holds.  A wider level is split
# into runs of panels, each finished before the next starts, so that memory
# stays bounded where the bisection keeps splitting every panel.
_MAX_PANELS = 4096


def _panel_values(f, panels, tol, depth):
    """The adaptive Simpson value of each panel, and whether all converged.

    A column of ``panels`` is one panel: its left end, midpoint and right end,
    their values, and its Simpson sum.  ``tol`` and ``depth`` are each panel's
    share of the tolerance and the bisections it has left.
    """
    levels = []  # per split level: which panels converged, and their values
    while True:
        x, fx, whole = panels[:3], panels[3:6], panels[6]
        mids = 0.5 * (x[:2] + x[1:])  # the midpoints of the two halves
        fmids = f(mids.ravel()).reshape(mids.shape)
        halves = (x[1:] - x[:2]) / 6.0 * (fx[:2] + 4.0 * fmids + fx[1:])
        both = halves[0] + halves[1]
        err = both - whole
        done = np.abs(err) <= 15.0 * tol
        val = both + err / 15.0
        if depth <= 0 or done.all():
            ok = bool(done.all())
            break
        levels.append((done, val))
        # the halves as panels: all left halves, then all right halves
        split = ~done
        halved = np.empty((7, 2, len(whole)))
        halved[0], halved[1], halved[2] = x[:2], mids, x[1:]
        halved[3], halved[4], halved[5] = fx[:2], fmids, fx[1:]
        halved[6] = halves
        panels = halved[:, :, split].reshape(7, -1)
        tol /= 2.0
        depth -= 1
        if panels.shape[1] > _MAX_PANELS:
            runs = [_panel_values(f, panels[:, i:i + _MAX_PANELS], tol, depth)
                    for i in range(0, panels.shape[1], _MAX_PANELS)]
            val = np.concatenate([v for v, _ in runs])
            ok = all(k for _, k in runs)
            break
    for done, panel in reversed(levels):
        half = len(val) // 2
        panel[~done] = val[:half] + val[half:]
        val = panel
    return val, ok


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

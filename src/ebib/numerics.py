"""Shared numerical kernels: quadrature, the bounded Nelder-Mead search,
special functions, the Normal distribution and the rank-one Gaussian
log-density.

All routines are pure functions; nothing here holds mutable state.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import numpy as np

from .errors import AccuracyError, DomainError

# the absolute tolerance and the bisection depth of `integrate`
QUAD_ABS_TOL = 1e-9
QUAD_MAX_DEPTH = 40
# the simplex-value spread at which `nelder_mead` may stop
NM_FATOL = 1e-12


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


# Normal distribution N(loc, scale^2).  Each kernel repeats the arithmetic of
# scipy's `norm` distribution step for step, without its generic per-call
# argument handling, which costs several times the arithmetic on a scalar, and
# without importing scipy, which would dominate the start-up time and memory
# of a run.  `erf`, `erfc`, `ndtr` and `ndtri` below are Python-float ports of
# Stephen L. Moshier's Cephes Mathematical Library (ndtr.c, ndtri.c), as
# vendored by `scipy.special`, with its coefficient tables and branch order:
# the pdf, cdf and ppf kernels equal scipy's bit for bit, and the logcdf
# kernel, log Phi on `erfc`, is within 8 ulp of `scipy.special.log_ndtr`.
_NORM_C = np.sqrt(2 * np.pi)
_NORM_LOGC = np.log(_NORM_C)

# cephes' tables, highest power first; a leading 1.0 stands for its p1evl
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_SQRTH = 7.07106781186547524401E-1  # 1/sqrt(2)
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_MAXLOG = 7.09782712893383996843E2  # log of the largest double
_EXP_M2 = 0.13533528323661269189  # exp(-2), where ndtri leaves its central branch


def _polevl(x, coef):
    """cephes' polevl: Horner's rule on Python floats."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def erf(x: float) -> float:
    """The error function, cephes' erf on a Python float; NaN propagates."""
    if x < 0.0:
        return -erf(-x)
    if x > 1.0:
        return 1.0 - erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def erfc(a: float) -> float:
    """1 - erf(a), cephes' erfc on a Python float; NaN propagates."""
    x = abs(a)
    if x < 1.0:
        return 1.0 - erf(a)
    z = -a * a
    if z < -_MAXLOG:  # cephes' underflow branch; exp(z) * p / q is never 0 above it
        return 2.0 if a < 0 else 0.0
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    y = math.exp(z) * _polevl(x, p) / _polevl(x, q)
    return 2.0 - y if a < 0 else y


def ndtr(a: float) -> float:
    """The standard Normal cdf, cephes' ndtr on a Python float."""
    x = a * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * erf(x)
    y = 0.5 * erfc(z)
    return 1.0 - y if x > 0 else y


def ndtri(y0: float) -> float:
    """The standard Normal quantile, cephes' ndtri on a Python float: -inf at
    0, inf at 1 and nan outside [0, 1]."""
    if not 0.0 < y0 < 1.0:
        return -math.inf if y0 == 0.0 else math.inf if y0 == 1.0 else math.nan
    lower = not y0 > 1.0 - _EXP_M2
    y = y0 if lower else 1.0 - y0
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, q)
    return -x if lower else x


def log_ndtr(v: float) -> float:
    """log Phi(v) on a Python float.  Below v = -1 with erfc(y) = exp(-y^2)
    p(y) / q(y) (y = -v / sqrt(2) >= 1) it is log(p / 2q) - y^2, which never
    underflows."""
    if v >= -1.0:
        return math.log1p(-erfc(v * _SQRTH) / 2.0)
    if not v > -math.inf:  # -inf and nan
        return v
    y = -v * _SQRTH
    if y < 1.0:
        return math.log(0.5 * erfc(y))
    p, q = (_ERFC_P, _ERFC_Q) if y < 8.0 else (_ERFC_R, _ERFC_S)
    return math.log(0.5 * _polevl(y, p) / _polevl(y, q)) - y * y


def _each(f, z):
    """The array of f, a function of one Python float, at each entry of z."""
    return np.fromiter(map(f, z.ravel().tolist()), float, z.size).reshape(z.shape)


def _operands(x, loc, scale):
    """x, loc and scale as float arrays of at least one dimension, with nan
    for every scale <= 0 (scipy's value there), and whether all three were
    scalars.

    scipy's argsreduce hands its kernels 1-d arrays.  On numpy scalars the
    same arithmetic is not the same: -z**2 then goes through the C pow(), and
    the last bit of the density can differ.  Float ``loc`` and ``scale``
    stay floats when ``x`` is a float64 array: each kernel's arithmetic with
    them gives the same bits as with 1-element arrays.
    """
    if (isinstance(loc, float) and isinstance(scale, float)
            and isinstance(x, np.ndarray) and x.ndim and x.dtype == np.float64):
        return x, loc, scale if scale > 0 else math.nan, False
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
    x, loc, scale, scalar = _operands(x, loc, scale)
    out = _each(ndtr, (x - loc) / scale)
    return out[0] if scalar else out


def norm_logcdf(x, loc=0.0, scale=1.0):
    x, loc, scale, scalar = _operands(x, loc, scale)
    out = _each(log_ndtr, (x - loc) / scale)
    return out[0] if scalar else out


def norm_ppf(q, loc=0.0, scale=1.0):
    """Quantile; -inf at q = 0, inf at q = 1 and nan outside [0, 1]."""
    q, loc, scale, scalar = _operands(q, loc, scale)
    out = _each(ndtri, q) * scale + loc
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
    recursive rule bit for bit.  A value of ``f`` that is not finite raises
    `AccuracyError` at once.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("integrate requires finite endpoints")
    if not a < b:
        raise DomainError("integrate requires a < b")
    x = np.array([a, 0.5 * (a + b), b])
    fx = _finite(f(x))
    whole = (b - a) / 6.0 * (fx[0] + 4.0 * fx[1] + fx[2])
    panels = np.concatenate([x, fx, [whole]])[:, None]
    val, ok = _panel_values(f, panels, QUAD_ABS_TOL, QUAD_MAX_DEPTH)
    if not ok:
        raise AccuracyError(
            "adaptive Simpson: max_depth exhausted before reaching abs_tol",
            estimate=float(val[0]),
        )
    return float(val[0])


def _finite(fx):
    """``fx``, if every value is finite.  A panel with a NaN or an infinite
    value never passes the error test, so its bisection would not stop."""
    if not np.isfinite(fx).all():
        raise AccuracyError("adaptive Simpson: the integrand is not finite",
                            estimate=math.nan)
    return fx


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
        fmids = _finite(f(mids.ravel())).reshape(mids.shape)
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


def nelder_mead(f, x0, lo, hi, maxiter: int, xatol: float):
    """Minimize ``f`` over the box [lo, hi] by Nelder and Mead's (1965)
    simplex search as scipy 1.17.1's ``minimize(method="Nelder-Mead",
    bounds=...)`` runs it, step for step: with the same ``maxiter`` and
    ``xatol``, and ``NM_FATOL`` as ``fatol``, it evaluates the same points in
    the same order, so its result equals scipy's bit for bit.  The
    coefficients are fixed (reflection 1, expansion 2, contraction and shrink
    1/2); every vertex and trial point is clipped to the box, and ``f`` gets a
    fresh float64 array of it.

    The simplex is held as lists of Python floats, whose arithmetic is
    numpy's float64 arithmetic without a numpy call per step; each formula
    keeps scipy's operation order.

    Returns (x, fun, nit, success): the best vertex, the least simplex value,
    the iterations (counted from 1) and whether the stopping test passed
    before ``maxiter``.
    """
    x0 = np.asarray(x0, dtype=float)
    N = x0.size
    lo, hi = (np.broadcast_to(np.asarray(edge, dtype=float), (N,)).tolist()
              for edge in (lo, hi))

    def box(x):
        # np.clip's rule: m = v if v > lo else lo, then m if m < hi else hi,
        # where a NaN v stays NaN
        return [h if (m := l if v <= l else v) >= h else m for v, l, h in zip(x, lo, hi)]

    x0 = box(x0.tolist())
    # x0, and x0 with one coordinate 5 % larger (0.00025 if it is 0); a
    # vertex above hi is reflected back below it
    sim = [x0]
    for k in range(N):
        v = list(x0)
        v[k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
        sim.append(box([2 * h - u if u > h else u for u, h in zip(v, hi)]))
    fsim = [float(f(np.array(v))) for v in sim]
    for _ in range(2):  # scipy sorts twice before the first iteration
        sim, fsim = _ordered(sim, fsim)
    iterations = 1
    while iterations < maxiter:
        best, fbest = sim[0], fsim[0]
        if (all(abs(u - b) <= xatol for v in sim[1:] for u, b in zip(v, best))
                and all(abs(fbest - fv) <= NM_FATOL for fv in fsim[1:])):
            break
        # the centroid of all but the worst vertex, summed vertex by vertex
        xbar = [reduce(add, col) / N for col in zip(*sim[:-1])]
        worst = sim[-1]
        xr = box([2 * b - w for b, w in zip(xbar, worst)])
        fxr = float(f(np.array(xr)))
        if fxr < fbest:  # reflected past the best: try expanding
            xe = box([3 * b - 2 * w for b, w in zip(xbar, worst)])
            fxe = float(f(np.array(xe)))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:  # contract outside if the reflection beat the worst, else inside
            out = fxr < fsim[-1]
            xc = box([1.5 * b - 0.5 * w for b, w in zip(xbar, worst)] if out
                     else [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)])
            fxc = float(f(np.array(xc)))
            if (fxc <= fxr) if out else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, N + 1):
                    sim[j] = box([b + 0.5 * (u - b) for u, b in zip(sim[j], best)])
                    fsim[j] = float(f(np.array(sim[j])))
        iterations += 1
        sim, fsim = _ordered(sim, fsim)
    return np.array(sim[0]), np.min(fsim), iterations, iterations < maxiter


def _ordered(sim, fsim):
    """The simplex in scipy's order: by ``np.argsort`` of its values, which
    need not keep tied values in place."""
    # the method of an array: np.argsort of a list goes through numpy's
    # fallback wrapper, about three times as slow a call
    ind = np.array(fsim).argsort().tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def rank_one_gaussian_logpdf(n, s, ss, sigma2, lam):
    """Log-density of N(0, sigma2*I + lam*11^t) at n values whose sum is
    ``s`` and sum of squares ``ss``, by the rank-one determinant lemma and
    Sherman-Morrison; the callers check sigma2 > 0 and lam >= 0.  Python
    floats and float64 scalars or arrays of ``s`` and ``ss`` give the same
    bits."""
    quad = (ss - lam * s * s / (sigma2 + n * lam)) / sigma2
    logdet = n * math.log(sigma2) + math.log1p(n * lam / sigma2)
    return -0.5 * (n * math.log(2.0 * math.pi) + logdet + quad)


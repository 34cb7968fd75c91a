import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from ebib.errors import AccuracyError, DomainError
from ebib.numerics import (
    QUAD_ABS_TOL,
    QUAD_MAX_DEPTH,
    finite_diff_gradient,
    integrate,
    log_gamma,
    low_rank_gaussian_logpdf,
    norm_cdf,
    norm_logcdf,
    norm_logpdf,
    norm_pdf,
    norm_ppf,
)
from ebib.posteriors import GaussianPosterior
from helpers import child_env, gaussian_logpdf


def test_log_gamma_against_high_precision_oracle():
    assert log_gamma(7.3) == pytest.approx(float(mpmath.loggamma(7.3)), abs=1e-12)


def test_log_gamma_log_grid_against_oracle():
    for x in np.geomspace(1e-3, 1e3, 60):
        want = float(mpmath.loggamma(x))
        assert log_gamma(float(x)) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_log_gamma_recurrence():
    for x in np.geomspace(1e-3, 1e3, 40):
        lhs = log_gamma(float(x) + 1.0)
        rhs = log_gamma(float(x)) + math.log(x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-10)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-1.5)


def test_integrate_unit_constant():
    assert integrate(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_integrate_linearity_on_random_polynomials():
    g = np.random.default_rng(7)
    for _ in range(10):
        c1 = g.normal(size=4)
        c2 = g.normal(size=4)
        a, b = sorted(g.uniform(-2, 2, size=2))
        if b - a < 0.1:
            b = a + 0.5
        f1 = lambda x: float(np.polyval(c1, x))
        f2 = lambda x: float(np.polyval(c2, x))
        al, be = g.normal(size=2)
        combo = integrate(lambda x: al * f1(x) + be * f2(x), a, b)
        parts = al * integrate(f1, a, b) + be * integrate(f2, a, b)
        assert combo == pytest.approx(parts, abs=2 * QUAD_ABS_TOL)


def test_integrate_absolute_moment_sqrt_two_over_pi():
    # E|Y - 2| for Y ~ N(2, 1) equals sqrt(2/pi)
    def f(y):
        return abs(y - 2.0) * math.exp(-0.5 * (y - 2.0) ** 2) / math.sqrt(2 * math.pi)

    val = integrate(f, -8.0, 12.0)
    assert val == pytest.approx(0.7978845608, abs=1e-8)
    # Monte Carlo oracle
    g = np.random.default_rng(3)
    mc = np.abs(g.normal(2.0, 1.0, size=400000) - 2.0).mean()
    assert abs(val - mc) < 0.005


def test_integrate_infinite_endpoints_rejected_for_simpson():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 0.0, math.inf)


def test_integrate_max_depth_raises_accuracy_error_with_estimate():
    # a jump at an irrational point keeps one panel per level straddling it,
    # so the bisection runs out of depth; the estimate still carries the
    # converged panels on both sides
    assert (QUAD_ABS_TOL, QUAD_MAX_DEPTH) == (1e-9, 40)
    jump = math.sqrt(2.0) - 1.0
    calls = []

    def step(x):
        calls.append(x)
        return 1.0 if x > jump else 0.0

    with pytest.raises(AccuracyError) as exc:
        integrate(step, 0.0, 1.0)
    assert len(calls) == 165
    assert abs(exc.value.estimate - (2.0 - math.sqrt(2.0))) < 2e-13


def test_low_rank_gaussian_two_point_case():
    # N_2(0, I + J) at y = (0, 0)
    cov = np.eye(2) + np.ones((2, 2))
    want = gaussian_logpdf([0.0, 0.0], [0.0, 0.0], cov)
    got = low_rank_gaussian_logpdf([0.0, 0.0], 0.0, 1.0, 1.0)
    assert got == pytest.approx(want, abs=1e-12)


def test_low_rank_gaussian_matches_dense_cholesky():
    g = np.random.default_rng(11)
    for n in (5, 17, 30, 50):
        y = g.normal(size=n)
        sigma2 = float(g.uniform(0.3, 3.0))
        lam = float(g.uniform(0.0, 5.0))
        cov = sigma2 * np.eye(n) + lam * np.ones((n, n))
        want = gaussian_logpdf(y, np.zeros(n), cov)
        got = low_rank_gaussian_logpdf(y, 0.0, sigma2, lam)
        assert got == pytest.approx(want, abs=1e-10)


def test_low_rank_gaussian_domain():
    with pytest.raises(DomainError):
        low_rank_gaussian_logpdf([0.0], 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        low_rank_gaussian_logpdf([0.0], 0.0, 1.0, -1.0)


def test_finite_diff_gradient_constant_is_zero():
    grad = finite_diff_gradient(lambda x: 3.5, np.array([1.0, -2.0, 0.3]))
    assert np.allclose(grad, 0.0, atol=1e-9)


def test_finite_diff_gradient_quadratic():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])

    def f(x):
        return 0.5 * float(x @ A @ x)

    x = np.array([0.7, -1.2])
    assert np.allclose(finite_diff_gradient(f, x), A @ x, atol=1e-7)


# The Normal kernels must equal scipy.stats.norm bit for bit: every printed
# number that goes through them stays byte-identical.
KERNELS = {"pdf": norm_pdf, "logpdf": norm_logpdf, "cdf": norm_cdf,
           "logcdf": norm_logcdf, "ppf": norm_ppf}


def _norm_draws(n, seed=20261018):
    """x with |z| up to 40 (the density underflows), q including tail
    probabilities down to 0, loc, and scale from 1e-4 to 1e3."""
    g = np.random.default_rng(seed)
    scale = 10.0 ** g.uniform(-4.0, 3.0, n)
    loc = g.normal(0.0, 10.0, n)
    x = loc + g.uniform(-40.0, 40.0, n) * scale
    q = np.concatenate([g.uniform(size=n // 2), ndtr(g.uniform(-40.0, 40.0, n - n // 2))])
    return {"x": x, "q": q, "loc": loc, "scale": scale}


def _first(name):
    return "q" if name == "ppf" else "x"


def _identical(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_norm_kernels_match_scipy_on_arrays(name):
    d = _norm_draws(20000)
    x, loc, scale = d[_first(name)], d["loc"], d["scale"]
    ours, ref = KERNELS[name], getattr(norm, name)
    _identical(ours(x, loc, scale), ref(x, loc, scale))
    # 2-d, and an array scale broadcast against x as the M2 prior does
    x2, loc2, scale2 = x.reshape(100, 200), loc[:200], scale[:200]
    _identical(ours(x2, loc2, scale2), ref(x2, loc2, scale2))
    _identical(ours(x2, 0.0, scale2), ref(x2, 0.0, scale2))
    _identical(ours(x2[:, :1], loc2, 2.5), ref(x2[:, :1], loc2, 2.5))
    # strided and Fortran-ordered views
    _identical(ours(x[::3], loc[::3], scale[::3]), ref(x[::3], loc[::3], scale[::3]))
    _identical(ours(x2.T, loc2[:, None], scale2[:, None]),
               ref(x2.T, loc2[:, None], scale2[:, None]))


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_norm_kernels_match_scipy_on_scalars(name):
    # Python floats and 0-d arrays, in alternation; arithmetic on 0-d arrays
    # instead of 1-d ones would round some densities differently
    d = _norm_draws(10000, seed=7)
    ours, ref = KERNELS[name], getattr(norm, name)
    for i, (x, loc, scale) in enumerate(zip(d[_first(name)], d["loc"], d["scale"])):
        args = (float(x), float(loc), float(scale))
        if i % 2:
            args = tuple(np.asarray(a) for a in args)
        want = ref(*args)
        _identical(ours(*args), want)
        # one point as an array, with a scalar loc and scale
        assert np.array_equal(ours([args[0]], *args[1:]), [want], equal_nan=True)
    _identical(ours(0.3), ref(0.3))


# In a fresh interpreter the cdf, logcdf and ppf kernels import their
# scipy.special ufunc on first call; the child writes what they return.
_FRESH_KERNELS = """
import sys
import numpy as np
from ebib import numerics
assert not any(m.startswith("scipy") for m in sys.modules), "scipy loaded on import"
d = np.load(sys.argv[1])
out = {}
for name in ("cdf", "logcdf", "ppf"):
    f = getattr(numerics, "norm_" + name)
    x = d["q"] if name == "ppf" else d["x"]
    out[name] = f(x, d["loc"], d["scale"])
    out[name + "_scalars"] = np.array([f(*map(float, a)) for a in zip(x[:50], d["loc"], d["scale"])])
    out[name + "_type"] = np.array(type(f(float(x[0]))).__name__)
np.savez(sys.argv[2], **out)
"""


def test_deferred_norm_kernels_match_scipy_in_a_fresh_interpreter(tmp_path):
    d = _norm_draws(2000, seed=11)
    np.savez(tmp_path / "in.npz", **d)
    proc = subprocess.run([sys.executable, "-c", _FRESH_KERNELS, str(tmp_path / "in.npz"),
                           str(tmp_path / "out.npz")], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    got = np.load(tmp_path / "out.npz")
    for name in ("cdf", "logcdf", "ppf"):
        x, loc, scale = d[_first(name)], d["loc"], d["scale"]
        ref = getattr(norm, name)
        _identical(got[name], ref(x, loc, scale))
        want = [ref(*map(float, a)) for a in zip(x[:50], loc, scale)]
        assert np.array_equal(got[name + "_scalars"], want, equal_nan=True)
        assert str(got[name + "_type"]) == type(ref(float(x[0]))).__name__


def test_norm_kernels_edge_values():
    inf, nan = math.inf, math.nan
    with np.errstate(all="ignore"):  # scipy warns on a zero scale
        for name, f in KERNELS.items():
            ref = getattr(norm, name)
            for scale in (0.0, -1.0, -inf, nan):
                for x in (0.0, 0.5, 2.0, -inf, inf):
                    assert math.isnan(f(x, 0.5, scale))
                    _identical(f(x, 0.5, scale), ref(x, 0.5, scale))
            assert math.isnan(f(nan, 0.5, 2.0))
            assert math.isnan(f(0.5, nan, 2.0))
            _identical(f([nan, 0.1, inf], 0.5, [2.0, -1.0, 3.0]),
                       ref([nan, 0.1, inf], 0.5, [2.0, -1.0, 3.0]))
    for x in (-inf, inf):
        assert norm_pdf(x, 1.0, 2.0) == 0.0
        assert norm_logpdf(x, 1.0, 2.0) == -inf
    assert norm_cdf(-inf) == 0.0 and norm_cdf(inf) == 1.0
    assert norm_logcdf(-inf) == -inf and norm_logcdf(inf) == 0.0
    assert norm_ppf(0.0, 1.0, 2.0) == -inf and norm_ppf(1.0, 1.0, 2.0) == inf
    for q in (-0.1, 1.1, nan):
        assert math.isnan(norm_ppf(q, 1.0, 2.0))
    q = [0.0, 1.0, -0.1, 1.1, 0.3]
    _identical(norm_ppf(q, 1.0, 2.0), norm.ppf(q, 1.0, 2.0))
    _identical(norm_pdf(np.empty(0)), norm.pdf(np.empty(0)))


def test_degenerate_gaussian_posterior_is_nan_like_scipy():
    p = GaussianPosterior(1.5, 0.0)
    with np.errstate(all="ignore"):
        for x in (1.5, 0.0, [1.0, 1.5, 2.0]):
            _identical(p.pdf(x), norm.pdf(x, 1.5, 0.0))
            _identical(p.logpdf(x), norm.logpdf(x, 1.5, 0.0))
            _identical(p.cdf(x), norm.cdf(x, 1.5, 0.0))
        _identical(p.ppf(0.3), norm.ppf(0.3, 1.5, 0.0))
    assert math.isnan(p.pdf(1.5)) and math.isnan(p.ppf(0.3))


def _low_rank_1d_reference(y, mean, sigma2, lam):
    # the scalar-reduction form every 1-d call must keep bit for bit
    r = np.asarray(y, dtype=float) - np.asarray(mean, dtype=float)
    n = r.size
    s = float(np.sum(r))
    quad = (float(r @ r) - lam * s * s / (sigma2 + n * lam)) / sigma2
    logdet = n * math.log(sigma2) + math.log1p(n * lam / sigma2)
    return -0.5 * (n * math.log(2.0 * math.pi) + logdet + quad)


@pytest.mark.parametrize("n", [1, 2, 37, 300])
def test_low_rank_gaussian_rowwise_equals_rows(n):
    g = np.random.default_rng(n)
    wide = g.normal(1.5, 2.0, size=(5, 2 * n))
    for y in (wide[:, :n], wide[:, ::2], np.asfortranarray(wide[:, :n])):
        got = low_rank_gaussian_logpdf(y, 0.3, 1.7, 2.5)
        assert got.shape == (5,)
        for row, val in zip(y, got):
            one = low_rank_gaussian_logpdf(row, 0.3, 1.7, 2.5)
            assert type(one) is float
            assert one == val == _low_rank_1d_reference(row, 0.3, 1.7, 2.5)

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from ebib import numerics
from ebib.errors import AccuracyError, DomainError
from ebib.numerics import (
    NM_FATOL,
    QUAD_ABS_TOL,
    QUAD_MAX_DEPTH,
    integrate,
    log_gamma,
    nelder_mead,
    norm_cdf,
    norm_logpdf,
    norm_pdf,
    norm_ppf,
)
from ebib.marginal import markov_log_marginal
from ebib.models import _log_dirichlet
from ebib.posteriors import GaussianPosterior
from helpers import child_env, finite_diff_gradient, norm_operands, recursive_simpson


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
    assert integrate(np.ones_like, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_integrate_linearity_on_random_polynomials():
    g = np.random.default_rng(7)
    for _ in range(10):
        c1 = g.normal(size=4)
        c2 = g.normal(size=4)
        a, b = sorted(g.uniform(-2, 2, size=2))
        if b - a < 0.1:
            b = a + 0.5
        f1 = lambda x: np.polyval(c1, x)
        f2 = lambda x: np.polyval(c2, x)
        al, be = g.normal(size=2)
        combo = integrate(lambda x: al * f1(x) + be * f2(x), a, b)
        parts = al * integrate(f1, a, b) + be * integrate(f2, a, b)
        assert combo == pytest.approx(parts, abs=2 * QUAD_ABS_TOL)


def test_integrate_absolute_moment_sqrt_two_over_pi():
    # E|Y - 2| for Y ~ N(2, 1) equals sqrt(2/pi)
    def f(y):
        return np.abs(y - 2.0) * np.exp(-0.5 * (y - 2.0) ** 2) / math.sqrt(2 * math.pi)

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
    sizes = []

    def step(x):
        sizes.append(x.size)
        return np.where(x > jump, 1.0, 0.0)

    with pytest.raises(AccuracyError) as exc:
        integrate(step, 0.0, 1.0)
    assert sum(sizes) == 165
    assert abs(exc.value.estimate - (2.0 - math.sqrt(2.0))) < 2e-13


# `integrate` runs the recursive rule one bisection level at a time; its
# results, and the estimate its AccuracyError carries, must equal the
# recursive rule's bit for bit.
def test_integrate_equals_recursive_simpson_on_random_polynomials():
    g = np.random.default_rng(20261018)
    for _ in range(40):
        c = g.normal(size=int(g.integers(1, 11))) * 10.0 ** g.uniform(-1, 1.5)
        a, b = sorted(g.uniform(-1.5, 1.5, size=2))
        assert integrate(lambda x: np.polyval(c, x), a, b) == \
            recursive_simpson(lambda x: np.polyval(c, x), a, b)


def test_integrate_equals_recursive_simpson_on_the_max_depth_step():
    jump = math.sqrt(2.0) - 1.0
    with pytest.raises(AccuracyError) as vec:
        integrate(lambda x: np.where(x > jump, 1.0, 0.0), 0.0, 1.0)
    with pytest.raises(AccuracyError) as rec:
        recursive_simpson(lambda x: 1.0 if x > jump else 0.0, 0.0, 1.0)
    assert vec.value.estimate == rec.value.estimate


def test_integrate_in_runs_of_panels_equals_recursive_simpson(monkeypatch):
    # a level wider than _MAX_PANELS is finished one run of panels after
    # another: no call then sees more than two panels' midpoints, and the
    # sums and the abscissae evaluated stay the recursive rule's
    monkeypatch.setattr(numerics, "_MAX_PANELS", 2)
    jump = math.sqrt(2.0) - 1.0
    cases = [(lambda x: np.exp(-(x - 0.3) ** 2 / 0.01), -1.0, 2.0),
             (lambda x: np.polyval([3.0, -1.0, 0.5, 2.0, -4.0, 1.0], x), -1.2, 1.4),
             (lambda x: np.where(x > jump, 1.0, 0.0), 0.0, 1.0)]
    for f, a, b in cases:
        sizes, results = {}, {}
        for rule in (integrate, recursive_simpson):
            seen = sizes[rule] = []

            def counted(x):
                seen.append(np.size(x))
                return f(x)

            try:
                results[rule] = rule(counted, a, b)
            except AccuracyError as exc:
                results[rule] = ("raised", exc.estimate)
        assert results[integrate] == results[recursive_simpson]
        assert sum(sizes[integrate]) == len(sizes[recursive_simpson])
        assert max(sizes[integrate][1:]) <= 4


# `nelder_mead` repeats scipy's bounded Nelder-Mead step for step: on each
# case below it must evaluate the same points in the same order as
# scipy.optimize.minimize and return the same x, fun, nit and success.
def _nelder_mead_and_scipy(f, x0, lo, hi, maxiter, xatol):
    from scipy.optimize import minimize

    seen = {nelder_mead: [], minimize: []}

    def recorded(key):
        def g(x):
            seen[key].append(x.tobytes())
            return f(x)
        return g

    got = nelder_mead(recorded(nelder_mead), x0, lo, hi, maxiter, xatol)
    res = minimize(recorded(minimize), x0, method="Nelder-Mead",
                   bounds=list(zip(lo, hi)),
                   options={"maxiter": maxiter, "xatol": xatol, "fatol": NM_FATOL})
    assert got[0].tobytes() == res.x.tobytes()
    assert got[1:] == (res.fun, res.nit, res.success)
    assert seen[nelder_mead] == seen[minimize]
    return got, [np.frombuffer(b) for b in seen[nelder_mead]]


def _m4_row_objective(counts):
    counts = np.asarray(counts)[None, :]
    return lambda a: -markov_log_marginal(counts, a[None, :])


def _dirichlet_row_objective(p):
    # the M4 oracle's objective: inf where the Dirichlet density raises
    def neg(a):
        try:
            return -_log_dirichlet(p, a)
        except DomainError:
            return math.inf
    return neg


def _shrunk(x0, nit, points):
    # an iteration evaluates one or two trial points, or 2 + N with a shrink
    return len(points) > len(x0) + 1 + 2 * (nit - 1)


def test_nelder_mead_equals_scipy_on_random_m4_rows():
    g = np.random.default_rng(20261019)
    shrinks = zero_cells = 0
    for _ in range(50):
        K = int(g.integers(2, 5))
        counts = g.integers(0, 41, size=K) * (g.uniform(size=K) > 0.3)
        counts[0] = max(counts[0], 1)
        zero_cells += int(np.sum(counts == 0))
        # the M4 MMLE's and the M4 oracle's objectives and settings; the
        # oracle searches only the positive cells, and only if there are two
        p = counts[counts > 0] / counts.sum()
        runs = [(_m4_row_objective(counts), np.full(K, 1e-3), 8000, 1e-9),
                (_m4_row_objective(counts), np.full(K, 1e-3), 4000, 1e-10)]
        if p.size > 1:
            runs.append((_dirichlet_row_objective(p), np.zeros(p.size), 4000, 1e-10))
        for f, lo, maxiter, xatol in runs:
            hi = np.full(lo.size, 50.0)
            x0 = g.uniform(lo, np.minimum(hi, 10.0))
            got, points = _nelder_mead_and_scipy(f, x0, lo, hi, maxiter, xatol)
            assert got[3]
            shrinks += _shrunk(x0, got[2], points)
    assert zero_cells > 0 and shrinks > 0


def test_nelder_mead_equals_scipy_when_maxiter_stops_it():
    lo, hi = np.full(3, 1e-3), np.full(3, 50.0)
    got, _ = _nelder_mead_and_scipy(_m4_row_objective([7, 0, 3]), np.ones(3),
                                    lo, hi, 50, 1e-9)
    assert got[2:] == (50, False)


def test_nelder_mead_equals_scipy_from_the_upper_edge():
    # the simplex vertices 5 % above hi are reflected to 2 hi - 1.05 hi
    lo, hi = np.full(2, 1e-3), np.full(2, 50.0)
    got, points = _nelder_mead_and_scipy(_m4_row_objective([10, 2]), hi.copy(),
                                         lo, hi, 8000, 1e-9)
    assert points[1].tolist() == [2 * 50.0 - 1.05 * 50.0, 50.0]
    assert points[2].tolist() == [50.0, 2 * 50.0 - 1.05 * 50.0]
    assert got[0][0] == 50.0 and got[3]


def test_nelder_mead_equals_scipy_where_the_objective_is_infinite():
    # the Dirichlet row objective of the M4 oracle, inf where it raises
    # DomainError: on a box from 0, at every vertex with a zero concentration
    neg = _dirichlet_row_objective(np.array([0.5, 0.25, 0.25]))
    lo, hi = np.zeros(3), np.full(3, 50.0)
    got, points = _nelder_mead_and_scipy(neg, np.zeros(3), lo, hi, 4000, 1e-10)
    assert sum(neg(x) == math.inf for x in points) > 0
    assert math.isfinite(got[1]) and got[3]


def test_nelder_mead_equals_scipy_through_a_shrink_step():
    x0 = np.ones(2)
    got, points = _nelder_mead_and_scipy(_m4_row_objective([3, 5]), x0,
                                         np.full(2, 1e-3), np.full(2, 50.0),
                                         8000, 1e-9)
    assert _shrunk(x0, got[2], points)


def _staircase(a):
    # a bowl of flat steps around (2, 2, 2); from (2, 1, 1) or (3, 1, 1) the
    # search meets ties that np.argsort does not keep in place
    return float(np.floor(np.sum((a - 2.0) ** 2)))


def _flat_cube(a):
    # 0 on the cube |a - 3| <= 1 and rising outside it
    return float(max(np.max(np.abs(a - 3.0)) - 1.0, 0.0))


def _rounded_m4_row(a):
    # the M4 row objective to one decimal: ties wherever the search is flat
    return round(_m4_row_objective([12, 0, 30])(a), 1)


def _nan_beyond_ten(a):
    # NaN, which orders against nothing, where any concentration passes 10
    return math.nan if np.max(a) > 10.0 else _m4_row_objective([4, 9])(a)


# Simplex values that tie or are NaN have more than one order; nelder_mead
# then orders them as scipy does, by np.argsort, which need not keep ties in
# place.
@pytest.mark.parametrize("f,x0", [
    (_staircase, [2.0, 1.0, 1.0]),
    (_staircase, [3.0, 1.0, 1.0]),
    (_flat_cube, [2.5, 3.0, 3.2]),
    (_rounded_m4_row, [7.0, 0.5, 2.0]),
    (_nan_beyond_ten, [9.8, 9.9]),
], ids=["staircase-211", "staircase-311", "flat-cube", "rounded-m4-row", "nan-region"])
def test_nelder_mead_equals_scipy_where_simplex_values_tie(f, x0):
    x0 = np.array(x0)
    lo, hi = np.full(x0.size, 1e-3), np.full(x0.size, 50.0)
    got, points = _nelder_mead_and_scipy(f, x0, lo, hi, 2000, 1e-9)
    values = [f(x) for x in points]
    assert len(set(values)) < len(values) or any(math.isnan(v) for v in values)


def test_finite_diff_gradient_constant_is_zero():
    grad = finite_diff_gradient(lambda x: 3.5, np.array([1.0, -2.0, 0.3]))
    assert np.allclose(grad, 0.0, atol=1e-9)


def test_finite_diff_gradient_quadratic():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])

    def f(x):
        return 0.5 * float(x @ A @ x)

    x = np.array([0.7, -1.2])
    assert np.allclose(finite_diff_gradient(f, x), A @ x, atol=1e-7)


# The cephes ports must equal scipy.special bit for bit, the sign of a zero
# included, on dense grids around every branch boundary.
def _bits(a):
    return np.asarray(a, float).view(np.int64)


def _near(got, want, ulps):
    """Where ``got`` equals ``want``, NaN to NaN, or lies within ``ulps``
    units in the last place of it."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    with np.errstate(invalid="ignore"):  # spacing(inf) is nan
        near = np.abs(got - want) <= ulps * np.spacing(np.abs(want))
    return (got == want) | (np.isnan(got) & np.isnan(want)) | near


def _port_agrees(port, ref, xs, ulps=0):
    """``port`` on each entry of ``xs`` equals ``ref(xs)`` bit for bit, NaN
    to NaN, or with ``ulps``, lies within that many ulp of it."""
    got = np.fromiter(map(port, xs.tolist()), float, xs.size)
    want = ref(xs)
    same = (_bits(got) == _bits(want)) | (np.isnan(got) & np.isnan(want))
    if ulps:
        same |= _near(got, want, ulps)
    assert same.all(), (xs[~same][:5], got[~same][:5], want[~same][:5])


def _neighbours(points, k=200):
    """The k doubles on each side of each point, with the point."""
    points = np.asarray(points, float)
    steps = np.arange(-k, k + 1) * np.spacing(np.abs(points))[:, None]
    return (points[:, None] + steps).ravel()


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
            -2.2250738585072014e-308, math.inf, -math.inf, math.nan]
_MAXLOG = 7.09782712893383996843E2


def _erf_points(seed=20261021):
    """Signed points around |x| = 1/sqrt(2), 1, 8 and sqrt(MAXLOG), the
    boundaries of erf and erfc, and spread from the subnormals to 40."""
    g = np.random.default_rng(seed)
    edges = _neighbours([math.sqrt(0.5), 1.0, 8.0, math.sqrt(_MAXLOG)])
    wide = np.concatenate([np.linspace(0.0, 40.0, 40001),
                           10.0 ** g.uniform(-323.0, 1.6, 40000)])
    both = np.concatenate([edges, wide])
    return np.concatenate([_SPECIAL, both, -both])


@pytest.mark.parametrize("name", ["erf", "erfc"])
def test_erf_ports_equal_scipy_bit_for_bit(name):
    from scipy import special

    _port_agrees(getattr(numerics, name), getattr(special, name), _erf_points())


def test_ndtr_port_equals_scipy_bit_for_bit():
    from scipy import special

    x = _erf_points()
    # ndtr's own argument is x / sqrt(2)
    _port_agrees(numerics.ndtr, special.ndtr, np.concatenate([x, x * math.sqrt(2.0)]))


def test_ndtri_port_equals_scipy_bit_for_bit():
    from scipy import special

    g = np.random.default_rng(20261021)
    e2, e32 = math.exp(-2.0), math.exp(-32.0)  # the central and the x = 8 splits
    q = np.concatenate([
        [0.0, -0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5,
         1.0 - 2.0**-53, -0.1, 1.1, -math.inf, math.inf, math.nan],
        _neighbours([e2, 1.0 - e2, e32, 1.0 - e32, 0.5]),
        g.uniform(size=40000), ndtr(g.uniform(-40.0, 40.0, 40000)),
        10.0 ** g.uniform(-323.0, 0.0, 40000), 1.0 - 10.0 ** g.uniform(-16.0, 0.0, 20000),
    ])
    _port_agrees(numerics.ndtri, special.ndtri, q)


# log_ndtr is log Phi on the cephes erfc, where scipy's log_ndtr evaluates
# erfcx: it must lie within LOGCDF_ULPS units in the last place of scipy's value.
LOGCDF_ULPS = 8


def test_log_ndtr_is_within_the_stated_ulps_of_scipy():
    from scipy import special

    g = np.random.default_rng(20261021)
    # its branches meet at v = -1, -sqrt(2) and -8 sqrt(2)
    v = np.concatenate([
        _SPECIAL, _neighbours([-1.0, -math.sqrt(2.0), -8.0 * math.sqrt(2.0)]),
        g.uniform(-1e5, 40.0, 40000), np.linspace(-40.0, 40.0, 40001),
        -(10.0 ** g.uniform(-3.0, 5.0, 40000)),
    ])
    _port_agrees(numerics.log_ndtr, special.log_ndtr, v, LOGCDF_ULPS)


# The Normal kernels must equal scipy.stats.norm bit for bit: every printed
# number that goes through them stays byte-identical.
KERNELS = {"pdf": norm_pdf, "logpdf": norm_logpdf, "cdf": norm_cdf, "ppf": norm_ppf}


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


# In a fresh interpreter the cdf and ppf kernels load no scipy module,
# before or after they run; the child writes what they return.
_FRESH_KERNELS = """
import sys
import numpy as np
from ebib import numerics
assert not any(m.startswith("scipy") for m in sys.modules), "scipy loaded on import"
d = np.load(sys.argv[1])
out = {}
for name, key in (("cdf", "x"), ("ppf", "q")):
    f = getattr(numerics, "norm_" + name)
    x = d[key]
    out[name] = f(x, d["loc"], d["scale"])
    out[name + "_scalars"] = np.array([f(*map(float, a)) for a in zip(x[:50], d["loc"], d["scale"])])
    out[name + "_type"] = np.array(type(f(float(x[0]))).__name__)
assert not any(m.startswith("scipy") for m in sys.modules), "the kernels loaded scipy"
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
    for name in ("cdf", "ppf"):
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
    assert numerics.log_ndtr(-inf) == -inf and numerics.log_ndtr(inf) == 0.0
    assert norm_ppf(0.0, 1.0, 2.0) == -inf and norm_ppf(1.0, 1.0, 2.0) == inf
    for q in (-0.1, 1.1, nan):
        assert math.isnan(norm_ppf(q, 1.0, 2.0))
    q = [0.0, 1.0, -0.1, 1.1, 0.3]
    _identical(norm_ppf(q, 1.0, 2.0), norm.ppf(q, 1.0, 2.0))
    _identical(norm_pdf(np.empty(0)), norm.pdf(np.empty(0)))


# With float loc and scale, `_operands` hands a float64 array x to the kernels
# as it is and keeps loc and scale as floats; every kernel value must equal
# the one from the all-array operands, bit for bit.
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_norm_kernels_on_float_parameters_equal_the_array_operands(name, monkeypatch):
    g = np.random.default_rng(20261019)
    cases = []
    for _ in range(300):
        loc = float(g.normal(0.0, 10.0))
        scale = float(10.0 ** g.uniform(-4.0, 3.0)) if g.uniform() > 0.1 else \
            float(g.choice([0.0, -0.0, -1.5, math.nan]))
        u = g.uniform(size=7) if name == "ppf" else loc + g.uniform(-40.0, 40.0, 7) * abs(scale)
        for x in (float(u[0]), np.float64(u[0]), np.array(u[0]), u[:3].tolist(), u,
                  u.reshape(7, 1), u[::2]):
            cases.append((x, loc, scale))
    kernel = KERNELS[name]
    got = [kernel(*c) for c in cases]
    monkeypatch.setattr(numerics, "_operands", norm_operands)
    want = [kernel(*c) for c in cases]
    for a, b in zip(got, want):
        assert type(a) is type(b) and np.shape(a) == np.shape(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_operands_pass_a_float64_array_through_with_float_parameters():
    x = np.linspace(-1.0, 1.0, 5)
    got = numerics._operands(x, 0.5, 2.0)
    assert got[0] is x and got[1:] == (0.5, 2.0, False)
    for bad in (0.0, -2.0):
        assert math.isnan(numerics._operands(x, 0.5, bad)[2])
    # a float x takes the general path: three 1-element arrays
    got = numerics._operands(0.25, 0.5, 2.0)
    assert [a.tolist() for a in got[:3]] == [[0.25], [0.5], [2.0]] and got[3] is True


def test_degenerate_gaussian_posterior_is_nan_like_scipy():
    p = GaussianPosterior(1.5, 0.0)
    with np.errstate(all="ignore"):
        for x in (1.5, 0.0, [1.0, 1.5, 2.0]):
            _identical(p.pdf(x), norm.pdf(x, 1.5, 0.0))
            _identical(p.logpdf(x), norm.logpdf(x, 1.5, 0.0))
            _identical(p.cdf(x), norm.cdf(x, 1.5, 0.0))
        _identical(p.ppf(0.3), norm.ppf(0.3, 1.5, 0.0))
    assert math.isnan(p.pdf(1.5)) and math.isnan(p.ppf(0.3))


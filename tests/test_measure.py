"""Measure construction, quadrature, partitions, growth constants."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from amalgam.functions import indicator, power_function, tent
from amalgam.measure import (
    DivergenceError,
    IntervalRC,
    _adaptive,
    _ladder_tail,
    custom_measure,
    gk_panels,
    growth_constant,
    integrate,
    lebesgue,
    make_interval,
    make_measure,
    partition,
    power_measure,
)
from amalgam.norms import Exponent, LqTable
from amalgam.operators import (potential, potential_profile, riesz_kernel,
                               table_kernel)

DENSITY_TABLE = [[-2.0, 0.5], [-1.0, 1.0], [0.0, 2.0], [1.0, 1.0], [2.0, 0.5]]


def custom():
    return custom_measure(DENSITY_TABLE, left_exp=0.5, right_exp=0.5)


ALL_MEASURES = [lebesgue(), power_measure(0.25), power_measure(0.5),
                power_measure(0.75), custom()]


def test_lebesgue_cdf_is_identity():
    m = lebesgue()
    assert m.cdf(3.5) == pytest.approx(3.5, abs=1e-15)
    assert m.cdf(0.0) == 0.0
    assert m.inv_cdf(-2.0) == pytest.approx(-2.0, abs=1e-15)


def test_power_cdf_analytic():
    m = power_measure(0.5)
    # F(x) = sign(x) 2 sqrt(|x|), so F(1) = 2 and F^{-1}(1) = 1/4.
    assert m.cdf(1.0) == pytest.approx(2.0, rel=1e-14)
    assert m.inv_cdf(1.0) == pytest.approx(0.25, abs=1e-14)
    assert m.cdf(-1.0) == pytest.approx(-2.0, rel=1e-14)


def test_make_measure_specs():
    assert make_measure({"kind": "lebesgue"}).kind == "lebesgue"
    assert make_measure({"kind": "power", "a": 0.5}).cdf(1.0) == pytest.approx(2.0)
    spec = {"kind": "custom", "density_table": DENSITY_TABLE,
            "tail": {"left_exp": 0.5, "right_exp": 0.5}}
    assert make_measure(spec).kind == "custom"
    with pytest.raises(ValueError):
        make_measure({"kind": "gaussian"})
    with pytest.raises(ValueError):
        make_measure({"kind": "power", "a": 1.5})
    with pytest.raises(ValueError):
        make_measure({"kind": "power"})


def test_power_exponent_range_rejected():
    for a in (-0.5, 0.0, 1.0, 2.0):
        with pytest.raises(ValueError):
            power_measure(a)


def test_custom_rejects_finite_tail_mass():
    # A tail exponent above 1 would make one half line integrable.
    with pytest.raises(ValueError):
        custom_measure(DENSITY_TABLE, left_exp=1.5, right_exp=0.5)
    with pytest.raises(ValueError):
        custom_measure([[-1.0, 0.0], [1.0, 1.0]], 0.5, 0.5)


@pytest.mark.parametrize("m", ALL_MEASURES, ids=lambda m: m.kind)
def test_cdf_round_trip(m):
    t = np.linspace(-40.0, 40.0, 1000)
    err = np.abs(m.cdf(m.inv_cdf(t)) - t)
    assert np.all(err <= 1e-10 * np.maximum(1.0, np.abs(t)))


@pytest.mark.parametrize("m", ALL_MEASURES, ids=lambda m: m.kind)
def test_cdf_strictly_increasing(m):
    x = np.linspace(-30.0, 30.0, 2001)
    assert np.all(np.diff(m.cdf(x)) > 0.0)


@pytest.mark.parametrize("m", ALL_MEASURES, ids=lambda m: m.kind)
def test_interval_mass_nonnegative(m):
    for a, b in [(-3.0, -1.0), (-1.0, 2.0), (0.5, 0.6), (5.0, 50.0)]:
        iv = make_interval(m, a, b)
        assert iv.mass >= 0.0
        assert iv.mass == pytest.approx(m.cdf(b) - m.cdf(a), abs=1e-12)


def test_interval_requires_order():
    with pytest.raises(ValueError):
        IntervalRC(2.0, 1.0)


def test_integrate_constant_lebesgue():
    assert integrate(lebesgue(), lambda x: np.ones_like(x),
                     IntervalRC(0.0, 2.0)) == pytest.approx(2.0, rel=1e-10)


def test_integrate_constant_power():
    m = power_measure(0.5)
    iv = make_interval(m, 0.0, 1.0)
    assert integrate(m, lambda x: np.ones_like(x), iv) == pytest.approx(2.0, rel=1e-10)


def test_integrate_polynomial():
    val = integrate(lebesgue(), lambda x: x ** 2, IntervalRC(0.0, 1.0))
    assert val == pytest.approx(1.0 / 3.0, rel=1e-10)


@pytest.mark.parametrize("m", ALL_MEASURES, ids=lambda m: m.kind)
def test_integrate_additive(m):
    def g(x):
        return np.cos(x) + 1.5

    tol = 1e-8
    left = integrate(m, g, make_interval(m, -1.0, 0.5), tol=tol)
    right = integrate(m, g, make_interval(m, 0.5, 2.0), tol=tol)
    whole = integrate(m, g, make_interval(m, -1.0, 2.0), tol=tol)
    assert left + right == pytest.approx(whole, abs=2 * tol * max(1.0, abs(whole)))


def test_integrate_monotone():
    m = power_measure(0.5)
    iv = make_interval(m, -1.0, 1.0)
    hi = integrate(m, lambda x: x ** 2 + 0.5, iv)
    lo = integrate(m, lambda x: x ** 2, iv)
    assert hi >= lo - 1e-8


def test_partition_lebesgue_unit():
    part = partition(lebesgue(), 0.0, 1.0, IntervalRC(-3.0, 3.0))
    k = np.round(part.breakpoints)
    assert np.allclose(part.breakpoints, k, atol=1e-12)
    assert np.all(np.diff(k) == 1)


def test_partition_power_breakpoints():
    part = partition(power_measure(0.5), 0.0, 1.0, IntervalRC(0.0, 1.5))
    bp = part.breakpoints
    j = int(np.argmin(np.abs(bp)))
    assert bp[j] == pytest.approx(0.0, abs=1e-12)
    assert bp[j + 1] == pytest.approx(0.25, abs=1e-10)
    assert bp[j + 2] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("m", [lebesgue(), power_measure(0.25),
                               power_measure(0.5), power_measure(0.75)],
                         ids=lambda m: m.kind)
@pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
def test_partition_blocks_equal_mass(m, r):
    window = make_interval(m, float(m.inv_cdf(-6.0 * r)), float(m.inv_cdf(6.0 * r)))
    part = partition(m, 0.0, r, window)
    masses = np.diff(m.cdf(part.breakpoints))
    assert np.all(np.abs(masses - r) <= 1e-9 * r)
    # Blocks tile the window: breakpoints strictly increasing, ends outside.
    assert np.all(np.diff(part.breakpoints) > 0)
    assert part.breakpoints[0] <= window.a + 1e-12
    assert part.breakpoints[-1] >= window.b - 1e-12


def test_partition_anchor_is_breakpoint():
    part = partition(power_measure(0.5), 0.0, 1.0, IntervalRC(-2.0, 2.0))
    assert np.min(np.abs(part.breakpoints - 0.0)) <= 1e-12


def test_partition_rejects_bad_r():
    with pytest.raises(ValueError):
        partition(lebesgue(), 0.0, 0.0, IntervalRC(0.0, 1.0))
    with pytest.raises(ValueError):
        partition(lebesgue(), 0.0, -1.0, IntervalRC(0.0, 1.0))


def test_growth_lebesgue_exact_one():
    assert growth_constant(lebesgue()) == 1.0


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
def test_growth_power_at_most_two(a):
    assert growth_constant(power_measure(a)) <= 2.0 + 1e-6


def test_growth_power_coarse_grid():
    val = growth_constant(power_measure(0.9), r_list=[0.5, 1.0, 2.0],
                          t_grid=np.linspace(-8.0, 8.0, 33))
    assert val <= 2.0 + 1e-6


def test_growth_custom_finite():
    assert np.isfinite(growth_constant(custom(), r_list=[0.5, 1.0, 2.0],
                                       t_grid=np.linspace(-8.0, 8.0, 65)))


@settings(max_examples=50, deadline=None)
@given(a=st.floats(-20.0, 20.0), width=st.floats(1e-3, 30.0))
def test_mass_additive_property(a, width):
    m = power_measure(0.5)
    b = a + width
    c = a + 0.5 * width
    whole = make_interval(m, a, b).mass
    parts = make_interval(m, a, c).mass + make_interval(m, c, b).mass
    assert whole == pytest.approx(parts, rel=1e-9, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(t=st.floats(-50.0, 50.0))
def test_round_trip_property(t):
    for m in (lebesgue(), power_measure(0.75), custom()):
        assert m.cdf(m.inv_cdf(t)) == pytest.approx(t, abs=1e-10 * max(1.0, abs(t)))


# ---------------------------------------------------------------------------
# The graded-ladder core against a reference copy of the earlier code
#
# _ref_ladder and _ref_integrate_t are the ladder and the cut loop as they
# were written before the ladder, its tail and the cut layout became shared
# helpers (less the error estimates, which no caller read).  integrate,
# potential and LqTable must give exactly their values.


def _ref_ladder(phi, t_sing, t_far, tol):
    h = t_far - t_sing
    if h == 0.0:
        return 0.0
    scale = np.abs(h) * 2.0 ** -np.arange(40)
    near = t_sing + np.sign(h) * scale / 2.0
    far = t_sing + np.sign(h) * scale
    lo = np.minimum(near, far)
    hi = np.maximum(near, far)
    vals, _ = gk_panels(phi, lo, hi)
    mags = np.abs(vals)
    tail_scale = max(float(np.max(mags)), 1e-300)
    last, prev = mags[-1], mags[-2]
    if last <= tol * tail_scale:
        rem = 0.0
    else:
        rho = last / max(prev, 1e-300)
        if rho >= 0.98:
            raise DivergenceError(
                "graded panel sums do not decay toward the singular endpoint",
                partial_sums=vals)
        rem = float(vals[-1]) * rho / (1.0 - rho)
    return float(np.sum(vals)) + rem


def _ref_integrate_t(phi, t_lo, t_hi, tol, singular_ts=(), break_ts=()):
    if t_hi <= t_lo:
        return 0.0
    sing = sorted({float(t) for t in singular_ts if t_lo <= t <= t_hi})
    cuts = sorted({t_lo, t_hi, *sing,
                   *(float(t) for t in break_ts if t_lo < t < t_hi)})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        a_sing, b_sing = a in sing, b in sing
        if a_sing and b_sing:
            mid = 0.5 * (a + b)
            for s, f in ((a, mid), (b, mid)):
                total += _ref_ladder(phi, s, f, tol)
        elif a_sing or b_sing:
            s, f = (a, b) if a_sing else (b, a)
            total += _ref_ladder(phi, s, f, tol)
        else:
            total += _adaptive(phi, a, b, tol)
    return total


def _ref_integrate(m, g, interval, tol=1e-8, singularities=(), breakpoints=()):
    def phi(t):
        return np.asarray(g(m.inv_cdf(t)), float)

    return _ref_integrate_t(phi, m.cdf(interval.a), m.cdf(interval.b), tol,
                            [m.cdf(s) for s in singularities],
                            [m.cdf(b) for b in breakpoints])


def _ref_potential(m, f, k, x, tol=1e-8):
    t_lo, t_hi = m.cdf(f.support.a), m.cdf(f.support.b)
    t_x = m.cdf(x)

    def phi(t):
        y = m.inv_cdf(t)
        with np.errstate(divide="ignore", over="ignore"):
            return np.asarray(k(x - y), float) * np.asarray(f(y), float)

    sing = [m.cdf(s) for s in f.singularities]
    brk = [m.cdf(b) for b in f.breakpoints]
    if t_lo <= t_x <= t_hi:
        (sing if k.singular_exponent is not None else brk).append(t_x)
    return _ref_integrate_t(phi, t_lo, t_hi, tol, sing, brk)


def _ref_lq_table(m, f, q, cells=4096):
    """(t_edges, cum) of LqTable(m, f, Exponent.of(q), cells)."""
    t_lo, t_hi = m.cdf(f.support.a), m.cdf(f.support.b)
    sing = sorted({m.cdf(s) for s in f.singularities if t_lo <= m.cdf(s) <= t_hi})
    brk = sorted({m.cdf(b) for b in f.breakpoints if t_lo < m.cdf(b) < t_hi})
    edges = np.unique(np.concatenate([
        np.linspace(t_lo, t_hi, cells + 1), np.asarray(sing), np.asarray(brk)]))

    def phi(t):
        with np.errstate(divide="ignore", over="ignore"):
            return np.abs(np.asarray(f(m.inv_cdf(t)), float)) ** q

    vals, _ = gk_panels(phi, edges[:-1], edges[1:])
    for s in sing:
        j = int(np.searchsorted(edges, s))
        if j > 0:
            vals[j - 1] = _ref_ladder(phi, s, edges[j - 1], 1e-12)
        if j < len(edges) - 1:
            vals[j] = _ref_ladder(phi, s, edges[j + 1], 1e-12)
    return edges, np.concatenate([[0.0], np.cumsum(vals)])


REF_MEASURES = [lebesgue(), power_measure(0.4), custom()]
REF_FUNCTIONS = [
    power_function(-0.4, (-1.0, 1.0)),   # interior singular point, breakpoints
    power_function(-0.3, (0.0, 2.0)),    # singular support end
    tent(-1.0, 1.5),                     # breakpoints only
    indicator(-0.5, 1.0),
]
REF_KERNELS = [riesz_kernel(0.6),
               table_kernel([[0.0, 2.0], [0.5, 1.5], [1.0, 1.0], [3.0, 0.0]])]


def _two_poles(x):
    with np.errstate(divide="ignore"):
        return np.abs(x) ** -0.3 + np.abs(x - 1.0) ** -0.45 + np.cos(x)


@pytest.mark.parametrize("m", REF_MEASURES, ids=repr)
def test_integrate_matches_reference_ladder(m):
    cases = [
        # both ends singular: two ladders meeting at the segment's middle
        (_two_poles, IntervalRC(0.0, 1.0), (0.0, 1.0), ()),
        # singular support end plus breakpoints
        (_two_poles, IntervalRC(0.0, 0.75), (0.0,), (0.25, 0.5)),
        # interior singular point, one of them outside the interval
        (_two_poles, IntervalRC(-1.0, 0.5), (0.0, 1.0), (-0.5,)),
        # smooth, with breakpoints only
        (lambda x: np.cos(x) + 1.5, IntervalRC(-2.0, 3.0), (), (-1.0, 0.0, 2.5)),
    ]
    for g, iv, sing, brk in cases:
        for tol in (1e-8, 1e-11):
            got = integrate(m, g, iv, tol=tol, singularities=sing, breakpoints=brk)
            assert got == _ref_integrate(m, g, iv, tol, sing, brk)
    for f in REF_FUNCTIONS:
        assert integrate(m, f, f.support) == _ref_integrate(
            m, f, f.support, singularities=f.singularities,
            breakpoints=f.breakpoints)


@pytest.mark.parametrize("k", REF_KERNELS, ids=lambda k: k.label)
@pytest.mark.parametrize("m", REF_MEASURES, ids=repr)
def test_potential_matches_reference_ladder(m, k):
    for f in REF_FUNCTIONS:
        a, b = f.support.a, f.support.b
        marks = {a, b, *f.breakpoints} - set(f.singularities)   # on a cut
        xs = [a - 2.0, b + 0.5,                                  # outside
              a + 0.3 * (b - a), a + 0.77 * (b - a), *sorted(marks)]
        for x in xs:
            assert potential(m, f, k, x) == _ref_potential(m, f, k, x), x


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("m", REF_MEASURES, ids=repr)
def test_lq_table_matches_reference_ladder(m, q):
    for f in REF_FUNCTIONS:
        for cells in (64, 4096):
            try:
                edges, cum = _ref_lq_table(m, f, q, cells)
            except DivergenceError as want:
                # |x|^(-0.4 q) against |x|^-0.4 dx is not integrable for q = 2.
                with pytest.raises(DivergenceError) as got:
                    LqTable(m, f, Exponent.of(q), cells=cells)
                assert np.array_equal(got.value.partial_sums, want.partial_sums)
                continue
            table = LqTable(m, f, Exponent.of(q), cells=cells)
            assert np.array_equal(table.t_edges, edges)
            assert np.array_equal(table.cum, cum)


@pytest.mark.parametrize("expo", [-1.2, -0.978])
def test_divergence_partial_sums_match_reference_ladder(expo):
    # |x|^expo is not integrable at 0: every route raises with the
    # partial sums of the ladder that failed to decay.  For -0.978 the
    # ladder ratio over Lebesgue is 2^-0.022 = 0.985, just past 0.98.
    f = power_function(expo, (-1.0, 1.0))
    for m in REF_MEASURES:
        routes = [
            (lambda: integrate(m, f, f.support),
             lambda: _ref_integrate(m, f, f.support, 1e-8, f.singularities,
                                    f.breakpoints)),
            (lambda: potential(m, f, REF_KERNELS[0], 2.5),
             lambda: _ref_potential(m, f, REF_KERNELS[0], 2.5)),
            (lambda: potential(m, f, REF_KERNELS[1], -0.5),
             lambda: _ref_potential(m, f, REF_KERNELS[1], -0.5)),
            (lambda: LqTable(m, f, Exponent.of(1.0)),
             lambda: _ref_lq_table(m, f, 1.0)),
        ]
        for new, ref in routes:
            with pytest.raises(DivergenceError) as got:
                new()
            with pytest.raises(DivergenceError) as want:
                ref()
            assert np.array_equal(got.value.partial_sums, want.value.partial_sums)
            assert str(got.value) == str(want.value)


def test_ladder_tail_reads_overflow_as_divergence():
    # A row that grows into a non-finite panel overflowed; a decaying row
    # with a non-finite innermost panel only rounded a node onto the
    # singular point, and that panel counts as 0.
    rows = np.array([[1.0, 2.0, 4.0, np.inf, np.inf],
                     [np.inf, np.inf, np.inf, np.inf, np.inf],
                     [1.0, np.inf, 0.5, 0.25, 0.125],
                     [1.0, 0.5, 0.25, 0.125, np.inf],
                     [1.0, 0.5, 0.25, 0.125, 0.0625]])
    rem, diverging = _ladder_tail(rows, 1e-12)
    assert diverging.tolist() == [True, True, True, False, False]
    assert rem[3] == 0.0 and rem[4] == 0.0625


def test_overflowing_ladder_diverges_on_every_route():
    # |x|^-30 overflows near 0 before the ladder reaches it; the panels
    # that overflowed used to count as 0 and leave a finite value.
    m = lebesgue()
    f = power_function(-30.0, (-1.0, 1.0))
    k = riesz_kernel(0.5)
    routes = [
        lambda: integrate(m, power_function(-30.0, (-10.0, 10.0)),
                          make_interval(m, 0.0, 1.0)),
        lambda: integrate(m, power_function(-400.0, (-10.0, 10.0)),
                          make_interval(m, 0.0, 1.0)),
        lambda: potential(m, f, k, 2.0),
        lambda: potential_profile(m, f, k, np.array([2.0, -3.0])),
        lambda: LqTable(m, f, Exponent.of(1.0)),
    ]
    with np.errstate(over="ignore"):
        for route in routes:
            with pytest.raises(DivergenceError) as got:
                route()
            assert not np.all(np.isfinite(got.value.partial_sums))


# --- F and F^-1 of one float: the scalar path against numpy's 0-d path,
# the code it replaced on Lebesgue and power measures, kept here as the
# reference

SCALAR_MEASURES = [lebesgue()] + [power_measure(a) for a in
                                  (0.05, 0.264, 0.3, 0.4, 0.5, 0.595, 0.95)]


def _ref_cdf(m, x):
    v = np.asarray(x, float)
    if m.kind == "lebesgue":
        return float(v.copy())
    a = m.a
    return float(np.sign(v) * np.abs(v) ** (1.0 - a) / (1.0 - a))


def _ref_inv_cdf(m, t):
    v = np.asarray(t, float)
    if m.kind == "lebesgue":
        return float(v.copy())
    a = m.a
    return float(np.sign(v) * ((1.0 - a) * np.abs(v)) ** (1.0 / (1.0 - a)))


def _bits(x):
    return np.float64(x).view(np.uint64)


def _scalar_inputs(seed, n):
    """n seeded floats log-uniform in [1e-300, 1e200] with random signs,
    then +-0, +-inf, NaN and subnormals."""
    rng = np.random.default_rng(seed)
    mag = 10.0 ** rng.uniform(-300.0, 200.0, size=n)
    vals = np.where(rng.random(n) < 0.5, -mag, mag).tolist()
    return vals + [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                   2.2250738585072014e-308, -1e-310, 1.5e-323]


@pytest.mark.parametrize("m", SCALAR_MEASURES, ids=repr)
def test_scalar_cdf_matches_numpy_0d_by_bits(m):
    vals = _scalar_inputs(int(m.a * 1000), 100_000)
    with np.errstate(over="ignore"):    # F^-1 overflows to inf on both paths
        for fn, ref in ((m.cdf, _ref_cdf), (m.inv_cdf, _ref_inv_cdf)):
            got = [fn(x) for x in vals]
            want = [ref(m, x) for x in vals]
            assert all(type(g) is float for g in got)
            assert np.array_equal(_bits(got), _bits(want))
            # np.float64 inputs take the same path and return float too
            got64 = [fn(np.float64(x)) for x in vals[-2000:]]
            assert all(type(g) is float for g in got64)
            assert np.array_equal(_bits(got64), _bits(want[-2000:]))


@pytest.mark.parametrize("a", [0.3, 0.5, 0.95])
def test_scalar_inv_cdf_overflow_warns_as_numpy(a):
    m = power_measure(a)
    t = 1e300
    for fn in (lambda: m.inv_cdf(t), lambda: _ref_inv_cdf(m, t)):
        with pytest.raises(RuntimeWarning, match="overflow"):
            fn()
        with np.errstate(over="ignore"):
            assert fn() == np.inf

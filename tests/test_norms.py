"""Exponents, Lq/weak/block/amalgam norms and their scaling laws."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from amalgam.functions import (
    indicator,
    power_function,
    power_twist,
    product,
    riesz_kernel_function,
    scaled,
    table_function,
    tent,
)
from amalgam.measure import (IntervalRC, custom_measure, lebesgue, make_interval,
                             power_measure)
from amalgam.norms import (
    Exponent,
    LqTable,
    TrivialSpaceError,
    _block_edges,
    _golden_max,
    amalgam_norm,
    block_norm,
    default_r_grid,
    level_set_mass,
    lq_norm,
    weak_norm,
)

LEB = lebesgue()
CHI01 = indicator(0.0, 1.0)


def test_exponent_basic():
    two = Exponent.of(2)
    assert two.value == 2.0 and two.recip == 0.5
    inf = Exponent.of(math.inf)
    assert inf.is_inf and inf.recip == 0.0
    assert Exponent.from_recip(0.0).is_inf
    assert Exponent.from_recip(0.25).value == pytest.approx(4.0)


def test_exponent_rejects_below_one():
    with pytest.raises(ValueError):
        Exponent.of(0.5)


@settings(max_examples=200, deadline=None)
@given(v=st.floats(1.0, 1e6))
def test_exponent_recip_inverse(v):
    e = Exponent.of(v)
    assert e.value * e.recip == pytest.approx(1.0, rel=1e-12)
    assert Exponent.from_recip(e.recip).value == pytest.approx(v, rel=1e-9)


def test_lq_indicator():
    iv = IntervalRC(0.0, 1.0)
    assert lq_norm(LEB, CHI01, iv, 2) == pytest.approx(1.0, rel=1e-9)


def test_lq_linear():
    f = power_function(1.0, (0.0, 1.0))
    assert lq_norm(LEB, f, IntervalRC(0.0, 1.0), 1) == pytest.approx(0.5, rel=1e-9)


def test_lq_power_measure_mass():
    m = power_measure(0.5)
    iv = make_interval(m, 0.0, 1.0)
    assert lq_norm(m, CHI01, iv, 1) == pytest.approx(2.0, rel=1e-9)


def test_lq_sup_norm():
    f = tent(-1.0, 1.0)
    assert lq_norm(LEB, f, IntervalRC(-1.0, 1.0), math.inf) == pytest.approx(1.0, abs=1e-6)


def test_level_set_mass_indicator():
    # One piece, [0, 1) or empty; a scalar level gives a float, an array
    # of levels an array of the same shape.
    lo, hi = CHI01.levels(np.array([0.5, 1.0]), True)
    assert lo.tolist() == [[0.0, 0.0]] and hi.tolist() == [[1.0, 0.0]]
    assert level_set_mass(LEB, CHI01, 0.5) == 1.0
    assert level_set_mass(LEB, CHI01, 1.0) == 0.0
    assert level_set_mass(LEB, CHI01, 1.0, strict=False) == 1.0
    lams = np.array([[0.5, 1.0], [1.0, 2.0]])
    assert level_set_mass(LEB, CHI01, lams).tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert level_set_mass(LEB, CHI01, lams, strict=False).tolist() == [[1.0, 1.0],
                                                                       [1.0, 0.0]]


def test_level_set_mass_needs_declared_levels():
    f = product(CHI01, np.cos, "cos*chi")
    assert f.levels is None
    with pytest.raises(ValueError, match="declares no level sets"):
        level_set_mass(LEB, f, 0.5)


@pytest.mark.parametrize("alpha", [1, 2, 4])
def test_weak_norm_indicator(alpha):
    assert weak_norm(LEB, CHI01, alpha) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7])
def test_weak_norm_riesz_kernel(gamma):
    # mu({|x|^(gamma-1) > lam}) = 2 lam^(-1/(1-gamma)), so the sup over
    # lam >= 1 is the constant 2^(1-gamma).
    k = riesz_kernel_function(gamma, (-1.0, 1.0))
    eta = Exponent.from_recip(1.0 - gamma)
    assert weak_norm(LEB, k, eta) == pytest.approx(2.0 ** (1.0 - gamma), rel=1e-4)


@pytest.mark.parametrize("a", [0.25, 0.5])
def test_weak_norm_riesz_kernel_power_measure_bound(a):
    gamma = 0.5
    k = riesz_kernel_function(gamma, (-1.0, 1.0))
    eta = Exponent.from_recip((1.0 - gamma) / (1.0 - a))
    val = weak_norm(power_measure(a), k, eta)
    bound = 2.0 ** (1.0 - gamma) * (2.0 / (1.0 - a)) ** eta.recip
    assert val <= bound * (1.0 + 1e-9)


def test_weak_norm_zero_function():
    zero = table_function([[0.0, 0.0], [1.0, 0.0]])
    assert weak_norm(LEB, zero, 2) == 0.0


def test_block_norm_single_block():
    assert block_norm(LEB, CHI01, 1, math.inf, 1.0) == pytest.approx(1.0, rel=1e-9)


def test_block_norm_two_half_blocks():
    assert block_norm(LEB, CHI01, 1, 1, 0.5) == pytest.approx(1.0, rel=1e-9)


def test_block_norm_q_inf_reads_the_declared_points():
    # A block's sup is lq_norm's, which reads the declared points: the
    # tent peaks on its breakpoint 0.5, in the block [0.3, 0.6), and the
    # power on its window's left end 0.05, in [0, 0.7); no sampled
    # midpoint lies on either.
    assert block_norm(LEB, tent(0.0, 1.0), "inf", "inf", 0.3) == 1.0
    f = power_function(-0.5, (0.05, 2.0))
    assert block_norm(LEB, f, "inf", "inf", 0.7) == pytest.approx(0.05 ** -0.5,
                                                                  rel=1e-15)


def test_block_norm_l2_blocks():
    f = indicator(0.0, 2.0)
    assert block_norm(LEB, f, 2, 2, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_amalgam_identity_exponents():
    val, _ = amalgam_norm(LEB, CHI01, 2, 2, 2)
    assert val == pytest.approx(1.0, rel=1e-3)


def test_amalgam_sup_blocks():
    # sup_r r^(1/2-1) min(r,1)^... peaks at the support scale r = 1.
    val, r_star = amalgam_norm(LEB, CHI01, 1, math.inf, 2)
    assert val == pytest.approx(1.0, rel=1e-3)
    assert r_star == pytest.approx(1.0, rel=0.2)


@pytest.mark.parametrize("q, p", [(1, 2), (1.5, 3), (2, 2), (1, math.inf)])
@pytest.mark.parametrize("f", [CHI01, tent(-1.0, 1.5)], ids=lambda f: f.label)
def test_amalgam_alpha_equal_p_is_lq_norm(f, q, p):
    # By Hoelder every scale is worth at most |f|_p, reached as r -> 0.
    m = power_measure(0.4)
    val, r_star = amalgam_norm(m, f, q, p, p)
    assert val == lq_norm(m, f, f.support, p) and r_star == 0.0
    for r in np.geomspace(1e-3, 8.0, 12):
        scan = r ** (1.0 / p - 1.0 / q) * block_norm(m, f, q, p, r)
        assert scan <= val * (1.0 + 1e-8)


def test_amalgam_alpha_equal_p_with_a_tail():
    tailed = replace(CHI01, tail_bound=2.0)
    assert amalgam_norm(LEB, tailed, 1, 2, 2)[0] == math.inf
    assert amalgam_norm(LEB, tailed, 1, math.inf, math.inf) == (2.0, 0.0)


def test_amalgam_zero_function():
    zero = table_function([[0.0, 0.0], [1.0, 0.0]])
    val, _ = amalgam_norm(LEB, zero, 1, 2, 1.5)
    assert val == 0.0


def test_amalgam_trivial_space_rejected():
    with pytest.raises(TrivialSpaceError):
        amalgam_norm(LEB, CHI01, 3, 4, 2)       # q > alpha
    with pytest.raises(TrivialSpaceError):
        amalgam_norm(LEB, CHI01, 1, 2, 4)       # alpha > p


def _per_scale_block_norm(m, f, q, p, r, x0, table):
    """The finite-q block norm as it was valued one scale at a time."""
    t0 = m.cdf(x0)
    i_lo = int(np.floor((m.cdf(f.support.a) - t0) / r))
    i_hi = int(np.ceil((m.cdf(f.support.b) - t0) / r))
    if i_hi <= i_lo:
        i_hi = i_lo + 1
    edges = t0 + np.arange(i_lo, i_hi + 1) * r
    values = table.mass_between(edges[:-1], edges[1:]) ** (1.0 / q.value)
    tail = f.tail_bound * r ** q.recip
    if p.is_inf:
        return max(float(np.max(values)), tail)
    if tail > 0.0:
        return np.inf
    return float(np.sum(values ** p.value) ** (1.0 / p.value))


def _per_scale_amalgam(m, f, q, p, alpha, r_grid, x0=0.0):
    """amalgam_norm for finite q and alpha < p as a loop over the scales,
    each scale's blocks valued on their own: the reference that the
    one-pass scan must equal bit for bit."""
    q, p, alpha = Exponent.of(q), Exponent.of(p), Exponent.of(alpha)
    r_grid = np.asarray(r_grid, float)
    expo = alpha.recip - q.recip
    table = LqTable(m, f, q)

    def g(r):
        return r ** expo * _per_scale_block_norm(m, f, q, p, r, x0, table)

    vals = np.array([g(r) for r in r_grid])
    if not np.any(vals > 0.0):
        return 0.0, float(r_grid[0])
    j = int(np.argmax(vals))
    lo = r_grid[max(j - 1, 0)]
    hi = r_grid[min(j + 1, len(r_grid) - 1)]
    r_best, v_best = _golden_max(lambda u: g(np.exp(u)), np.log(lo), np.log(hi))
    if v_best >= vals[j]:
        return float(v_best), float(np.exp(r_best))
    return float(vals[j]), float(r_grid[j])


SCAN_MEASURES = {
    "lebesgue": LEB,
    "power0.4": power_measure(0.4),
    "custom": custom_measure([[-2.0, 1.0], [-0.5, 3.0], [0.5, 0.25], [2.0, 1.0]],
                             0.5, 0.8),
}
SCAN_FUNCTIONS = [CHI01, tent(-1.0, 1.5), power_function(-0.25, (-0.5, 2.0))]


def _scan_grid(kind, mass):
    if kind == "one":
        return np.array([0.3 * mass])
    if kind == "extra":      # amalgam norm --r 1e-4
        return np.sort(np.concatenate([default_r_grid(mass), [1e-4]]))
    return default_r_grid(mass, 64 * {"gs1": 1, "gs2": 2}[kind])


@pytest.mark.parametrize("grid", ["one", "gs1", "gs2", "extra"])
@pytest.mark.parametrize("p", [4, math.inf])
@pytest.mark.parametrize("f", SCAN_FUNCTIONS, ids=lambda f: f.label)
@pytest.mark.parametrize("mname", sorted(SCAN_MEASURES))
def test_one_pass_scan_equals_the_per_scale_loop(mname, f, p, grid):
    m = SCAN_MEASURES[mname]
    r_grid = _scan_grid(grid, m.mass(f.support))
    expected = _per_scale_amalgam(m, f, 1, p, 2, r_grid)
    assert amalgam_norm(m, f, 1, p, 2, r_grid=r_grid) == expected
    table = LqTable(m, f, Exponent.of(1))
    assert amalgam_norm(m, f, 1, p, 2, r_grid=r_grid, table=table) == expected


@pytest.mark.parametrize("q, p, alpha", [(1, 2, 1.5), (1.5, 4, 2.5), (1, math.inf, 2)])
@pytest.mark.parametrize("x0", [0.0, 0.3, -0.7])
@pytest.mark.parametrize("tail", [0.0, 0.25])
def test_one_pass_scan_with_tails_and_anchors(q, p, alpha, x0, tail):
    m = power_measure(0.4)
    f = replace(tent(-1.0, 1.5), tail_bound=tail)
    r_grid = default_r_grid(m.mass(f.support))
    expected = _per_scale_amalgam(m, f, q, p, alpha, r_grid, x0=x0)
    assert amalgam_norm(m, f, q, p, alpha, r_grid=r_grid, x0=x0) == expected
    table = LqTable(m, f, Exponent.of(q))
    for r in (1e-4, 0.05, 0.7, 3.0, 40.0):
        assert block_norm(m, f, q, p, r, x0=x0) == _per_scale_block_norm(
            m, f, Exponent.of(q), Exponent.of(p), r, x0, table)


@pytest.mark.parametrize("t0, t_lo, t_hi", [(0.0, -1.0, 1.5), (0.3, 0.25, 0.26),
                                          (-0.7, 2.0, 9.0), (0.0, 0.5, 0.5)])
def test_block_edges_match_the_per_scale_layout(t0, t_lo, t_hi):
    rs = np.concatenate([default_r_grid(1.0), [0.25, 0.5, 1e-4]])
    edges, starts, n = _block_edges(t0, rs, t_lo, t_hi)
    assert starts[-1] + n[-1] == edges.size
    for r, a, k in zip(rs, starts, n):
        i_lo, i_hi = int(np.floor((t_lo - t0) / r)), int(np.ceil((t_hi - t0) / r))
        if i_hi <= i_lo:        # t_lo = t_hi = 0.5 on a block edge
            i_hi = i_lo + 1
        assert np.array_equal(edges[a:a + k], t0 + np.arange(i_lo, i_hi + 1) * r)


@pytest.mark.parametrize("r_grid, match", [
    ([], "at least one block scale"),
    ([0.5, 0.0, 1.0], "positive and finite, got 0.0"),
    ([0.5, -1.0], "positive and finite, got -1.0"),
    ([0.5, math.inf], "positive and finite, got inf"),
    ([math.nan, 0.5], "positive and finite, got nan")])
@pytest.mark.parametrize("p", [4, 2])
def test_amalgam_checks_the_whole_grid_first(r_grid, match, p):
    # p = 2 = alpha scans nothing; the grid is checked all the same.
    with pytest.raises(ValueError, match=match):
        amalgam_norm(LEB, tent(-1.0, 1.0), 1, p, 2, r_grid=r_grid)


HOMOG_FUNCTIONS = [CHI01, tent(-1.0, 1.0), power_function(-0.5, (0.05, 2.0))]


@pytest.mark.parametrize("f", HOMOG_FUNCTIONS, ids=lambda f: f.label)
@pytest.mark.parametrize("c", [2.0, 10.0, 0.5])
def test_homogeneity(f, c):
    g = scaled(f, c)
    iv = IntervalRC(-1.0, 2.0)
    assert lq_norm(LEB, g, iv, 2) == pytest.approx(c * lq_norm(LEB, f, iv, 2), rel=1e-9)
    assert weak_norm(LEB, g, 2) == pytest.approx(c * weak_norm(LEB, f, 2), rel=1e-9)
    assert block_norm(LEB, g, 2, 3, 0.7) == pytest.approx(
        c * block_norm(LEB, f, 2, 3, 0.7), rel=1e-9)
    gv, _ = amalgam_norm(LEB, g, 1, 4, 2)
    fv, _ = amalgam_norm(LEB, f, 1, 4, 2)
    assert gv == pytest.approx(c * fv, rel=1e-9)


MONO_FUNCTIONS = [CHI01, tent(-1.0, 1.0), power_function(-0.5, (0.05, 2.0)),
                  riesz_kernel_function(0.5, (-1.0, 1.0)),
                  power_twist(tent(-1.0, 1.0), 0.05)]


@pytest.mark.parametrize("f", MONO_FUNCTIONS, ids=lambda f: f.label)
def test_weak_norm_grid_refinement_monotone(f):
    # Endpoint-fixed geometric grids are nested under n -> 2n-1, so the
    # candidate set only grows along this chain.
    vals = [weak_norm(LEB, f, 2, lambda_grid_size=n) for n in (257, 513, 1025)]
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12


WEAK_LE_STRONG = [CHI01, indicator(-2.0, 3.0), tent(0.0, 1.0),
                  power_function(-0.25, (0.1, 1.0))]


@pytest.mark.parametrize("f", WEAK_LE_STRONG, ids=lambda f: f.label)
@pytest.mark.parametrize("alpha", [1.5, 2, 3])
def test_weak_le_strong(f, alpha):
    weak = weak_norm(LEB, f, alpha)
    strong = lq_norm(LEB, f, f.support, alpha)
    assert weak <= strong * (1.0 + 1e-6) + 1e-9


EMBED_FAMILY = [CHI01, indicator(-1.0, 1.0), indicator(0.0, 4.0),
                tent(-1.0, 1.0), tent(0.0, 0.5),
                power_function(-0.5, (0.05, 2.0)),
                riesz_kernel_function(0.5, (-1.0, 1.0))]


def test_embedding_ratio_bounded():
    # q < alpha < p: the amalgam norm is controlled by the weak norm.
    ratios = []
    for f in EMBED_FAMILY:
        av, _ = amalgam_norm(LEB, f, 1, 4, 2)
        wv = weak_norm(LEB, f, 2)
        assert wv > 0.0
        ratios.append(av / wv)
    assert np.isfinite(max(ratios))


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-3.0, 3.0), width=st.floats(0.1, 4.0),
       lam=st.floats(0.05, 0.95))
def test_level_set_indicator_property(a, width, lam):
    f = indicator(a, a + width)
    lo, hi = f.levels(np.array([lam, 1.0]), True)
    assert lo.tolist() == [[a, a]] and hi.tolist() == [[a + width, a]]
    assert level_set_mass(LEB, f, lam) == pytest.approx(width, rel=1e-9)
    masses = level_set_mass(LEB, f, np.array([lam, 1.0]))
    assert masses[0] == level_set_mass(LEB, f, lam) and masses[1] == 0.0


def test_amalgam_q_inf_is_the_sup_norm():
    # q <= alpha <= p, so q = inf leaves only alpha = p = inf: the sup of |f|.
    m = power_measure(0.4)
    for f in (CHI01, tent(-1.0, 1.5), power_function(-0.25, (0.05, 2.0))):
        assert amalgam_norm(m, f, "inf", "inf", "inf") == (lq_norm(m, f, f.support, "inf"), 0.0)
    for alpha in (1, 2, 8):
        with pytest.raises(TrivialSpaceError):
            amalgam_norm(m, CHI01, "inf", "inf", alpha)


def test_lq_sup_norm_reads_the_declared_points():
    # The peak of a spike sits on the support's left end, a tent's on a
    # breakpoint and a Riesz kernel's on its singular point: none is a
    # sampled midpoint.
    f = power_function(-0.25, (0.05, 2.0))
    assert lq_norm(LEB, f, f.support, "inf") == pytest.approx(0.05 ** -0.25, rel=1e-15)
    assert lq_norm(LEB, tent(-1.0, 1.2), IntervalRC(-1.0, 1.2), "inf") == 1.0
    spike = riesz_kernel_function(0.5, (-1.0, 1.0))
    assert lq_norm(LEB, spike, spike.support, "inf") == math.inf
    # A point outside [a, b) is not read; NaN values are skipped.
    assert lq_norm(LEB, f, IntervalRC(1.0, 2.0), "inf") == pytest.approx(1.0, rel=1e-3)
    half_nan = replace(CHI01, eval=lambda x: np.where(x < 0.5, np.nan, 1.0))
    assert lq_norm(LEB, half_nan, CHI01.support, "inf") == 1.0


def _geometric_weak_scan(v, cell, alpha, n=512):
    """The earlier sampled weak norm: open and closed counts of the samples
    v on n geometric levels from the smallest positive sample to the top."""
    pos = v[v > 0.0]
    lams = np.geomspace(max(pos.min(), pos.max() * 1e-15), pos.max(), n)
    s = np.sort(v)
    counts = np.concatenate([v.size - np.searchsorted(s, lams, side="right"),
                             v.size - np.searchsorted(s, lams, side="left")])
    return float(np.max(np.tile(lams, 2) * (counts * cell) ** (1.0 / alpha)))


@pytest.mark.parametrize("m", [LEB, power_measure(0.5)], ids=["lebesgue", "power0.5"])
@pytest.mark.parametrize("alpha", [1.5, 2, 4])
def test_weak_norm_of_samples_is_their_exact_sup(m, alpha):
    # Without declared levels, mu(|f| > lam) is the mass of the sampled
    # cells above lam, so the sup is a max over the samples v of
    # v * (cell * #{samples >= v})^(1/alpha).
    f = power_twist(tent(-1.0, 1.0), 0.25)
    assert f.levels is None
    t_lo, t_hi = m.cdf(f.support.a), m.cdf(f.support.b)
    cell = (t_hi - t_lo) / 4096
    v = np.abs(f(m.inv_cdf(t_lo + cell * (np.arange(4096) + 0.5))))
    counts = np.count_nonzero(v[None, :] >= v[:, None], axis=1)
    brute = float(np.max(v * (cell * counts) ** (1.0 / alpha)))
    val = weak_norm(m, f, alpha)
    assert val == pytest.approx(brute, rel=1e-12)
    assert val >= _geometric_weak_scan(v, cell, alpha)


CUSTOM = custom_measure([[-2.0, 1.0], [-0.5, 0.4], [0.5, 2.0], [2.0, 1.0]],
                        left_exp=0.5, right_exp=0.0)
# Every declared kind: the table changes sign twice and has a plateau
# |f| = 1 on [0, 0.5]; the powers fall (e < 0), rise (e > 0) and rise on
# both sides of 0 in a window that straddles it.
DECLARED = [indicator(-0.7, 1.3), tent(-1.0, 1.5),
            table_function([[-2.0, 0.0], [-1.0, 1.5], [0.0, -1.0], [0.5, -1.0],
                            [1.0, 0.5], [2.0, 0.0]]),
            power_function(-0.5, (0.05, 2.0)),
            power_function(1.5, (0.2, 1.8), coefficient=2.0),
            power_function(0.7, (-1.2, 0.9)),
            riesz_kernel_function(0.5, (-1.0, 1.0)),
            scaled(tent(-1.0, 1.5), -2.5)]


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("m", [LEB, power_measure(0.4), CUSTOM],
                         ids=["lebesgue", "power0.4", "custom"])
@pytest.mark.parametrize("f", DECLARED, ids=lambda f: f.label)
def test_levels_pieces_match_a_dense_count(f, m, strict):
    # The pieces are ordered intervals that do not overlap, and their
    # mass is the share of a fine grid in measure coordinates with
    # |f| above lam, up to one cell per piece end.
    t_lo, t_hi = m.cdf(f.support.a), m.cdf(f.support.b)
    n = 200_000
    cell = (t_hi - t_lo) / n
    v = np.abs(f(m.inv_cdf(t_lo + cell * (np.arange(n) + 0.5))))
    top = float(v.max())
    lams = np.array([1e-3 * top, 0.1 * top, 0.37 * top, 0.5 * top, 0.8 * top,
                     1.0, 1.5, top, 2.0 * top])
    lo, hi = f.levels(lams, strict)
    assert lo.shape == hi.shape and lo.shape[1] == lams.size
    assert np.all(lo <= hi)
    for j in range(lams.size):
        full = hi[:, j] > lo[:, j]
        order = np.argsort(lo[full, j])
        assert np.all(hi[full, j][order][:-1] <= lo[full, j][order][1:])
    mass = level_set_mass(m, f, lams, strict)
    hits = (v[None, :] > lams[:, None]) if strict else (v[None, :] >= lams[:, None])
    dense = np.count_nonzero(hits, axis=1) * cell
    assert np.all(np.abs(mass - dense) <= 2 * lo.shape[0] * cell + 1e-12 * dense)
    assert level_set_mass(m, f, lams[2], strict) == mass[2]

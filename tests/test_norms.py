"""Exponents, Lq/weak/block/amalgam norms and their scaling laws."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from amalgam import norms
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
    _scale_value,
    _scale_values,
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
    c0 = np.interp(edges[:-1], table.t_edges, table.cum)
    c1 = np.interp(edges[1:], table.t_edges, table.cum)
    values = np.maximum(c1 - c0, 0.0) ** (1.0 / q.value)
    if p.is_inf:
        return float(np.max(values))
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
def test_one_pass_scan_with_anchors(q, p, alpha, x0):
    m = power_measure(0.4)
    f = tent(-1.0, 1.5)
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
def test_weak_norm_grid_refinement_monotone(f, monkeypatch):
    # Endpoint-fixed geometric grids are nested under n -> 2n-1, so the
    # candidate set only grows along this chain.
    vals = []
    for n in (257, 513, 1025):
        monkeypatch.setattr(norms, "LAMBDA_GRID_SIZE", n)
        vals.append(weak_norm(LEB, f, 2))
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


# ---------------------------------------------------------------------------
# The scale search against the parent's one-pass scan and golden polish


def _parent_scale_values(table, p, expo, t0, t_lo, t_hi, rs):
    """The scan as it was before the lean one-scale evaluator: every
    scale's edges in one array, two interps (mass_between), one 1/q power
    over all blocks and _combine's power to p on each scale's slice."""
    i_lo = np.floor((t_lo - t0) / rs).astype(np.int64)
    n = np.maximum(np.ceil((t_hi - t0) / rs).astype(np.int64) - i_lo, 1) + 1
    starts = n.cumsum() - n
    i = np.arange(starts[-1] + n[-1]) + (i_lo - starts).repeat(n)
    edges = t0 + i * rs.repeat(n)
    c0 = np.interp(edges[:-1], table.t_edges, table.cum)
    c1 = np.interp(edges[1:], table.t_edges, table.cum)
    values = np.maximum(c1 - c0, 0.0) ** (1.0 / table.q.value)

    def combine(v):
        if p.is_inf:
            return float(v.max()) if v.size else 0.0
        return float((v ** p.value).sum() ** (1.0 / p.value))

    return np.array([r ** expo * combine(values[a:a + k - 1])
                     for r, a, k in zip(rs, starts, n)])


def _parent_golden_max(fn, lo, hi, iters=60):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def _parent_amalgam(m, f, q, p, alpha, r_grid, x0):
    """The parent's amalgam_norm for q <= alpha < p: the grid scan, then
    the golden polish, each step a one-scale pass of the same scan."""
    q, p, alpha = Exponent.of(q), Exponent.of(p), Exponent.of(alpha)
    expo = alpha.recip - q.recip
    table = LqTable(m, f, q)
    t0, t_lo, t_hi = m.cdf(x0), m.cdf(f.support.a), m.cdf(f.support.b)

    def scan(rs):
        return _parent_scale_values(table, p, expo, t0, t_lo, t_hi, rs)

    vals = scan(r_grid)
    if not np.any(vals > 0.0):
        return 0.0, float(r_grid[0])
    j = int(np.argmax(vals))
    lo = r_grid[max(j - 1, 0)]
    hi = r_grid[min(j + 1, len(r_grid) - 1)]
    r_best, v_best = _parent_golden_max(lambda u: scan(np.array([np.exp(u)]))[0],
                                        np.log(lo), np.log(hi))
    if v_best >= vals[j]:
        return float(v_best), float(np.exp(r_best))
    return float(vals[j]), float(r_grid[j])


SEARCH_MEASURES = {"lebesgue": LEB, "power0.5": power_measure(0.5), "custom": CUSTOM}
SEARCH_FUNCTIONS = {"tent": tent(-1.0, 1.5), "indicator": indicator(-0.3, 0.7),
                    "spike": power_function(-0.5, (0.05, 2.0)),
                    "scaled_tent": scaled(tent(-1.0, 1.0), 3.5)}


def _search_case(seed, m, f):
    """Seeded exponents, anchor and grid.  Odd seeds take p = inf;
    seed % 4 picks the default grid, one scale, the 128-scale grid or
    scales at and above the support's mass, where the support meets a
    single block."""
    rng = np.random.default_rng(seed)
    q = float(rng.choice([1.0, 1.5, 2.0]))
    p = math.inf if seed % 2 else float(rng.uniform(q + 0.5, 8.0))
    alpha = float(rng.uniform(q, min(p, 10.0)))
    x0 = 0.0 if seed % 8 == 0 else float(rng.uniform(-1.5, 1.5))
    mass = m.mass(f.support)
    grid = [default_r_grid(mass),
            np.array([mass * float(rng.uniform(0.01, 2.0))]),
            default_r_grid(mass, 128),
            np.geomspace(mass, 30.0 * mass, 12)][seed % 4]
    return q, p, alpha, x0, f, grid


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("fname", sorted(SEARCH_FUNCTIONS))
@pytest.mark.parametrize("mname", sorted(SEARCH_MEASURES))
def test_amalgam_norm_equals_the_parents_search_bit_for_bit(mname, fname, seed):
    m = SEARCH_MEASURES[mname]
    q, p, alpha, x0, f, grid = _search_case(seed, m, SEARCH_FUNCTIONS[fname])
    expected = _parent_amalgam(m, f, q, p, alpha, grid, x0)
    assert amalgam_norm(m, f, q, p, alpha, r_grid=grid, x0=x0) == expected
    table = LqTable(m, f, Exponent.of(q))
    assert amalgam_norm(m, f, q, p, alpha, r_grid=grid, x0=x0, table=table) == expected


def test_the_search_cases_meet_a_single_block():
    # The large-scale grids do hold scales whose run is one block.
    singles = 0
    for seed in (3, 7):
        for m in SEARCH_MEASURES.values():
            for f in SEARCH_FUNCTIONS.values():
                *_, x0, f, grid = _search_case(seed, m, f)
                n = _block_edges(m.cdf(x0), grid, m.cdf(f.support.a), m.cdf(f.support.b))[2]
                singles += int(np.count_nonzero(n == 2))
    assert singles >= 50


@pytest.mark.parametrize("p", [3.0, math.inf])
@pytest.mark.parametrize("mname", sorted(SEARCH_MEASURES))
def test_one_scale_values_equal_the_grid_pass(mname, p):
    # 3 measures x 2 p x 4 functions x 100 = 2,400 seeded scales.
    m, p = SEARCH_MEASURES[mname], Exponent.of(p)
    rng = np.random.default_rng(17)
    for f in SEARCH_FUNCTIONS.values():
        q = Exponent.of(float(rng.choice([1.0, 1.5, 2.0])))
        table = LqTable(m, f, q)
        t0, t_lo, t_hi = m.cdf(float(rng.uniform(-1.5, 1.5))), *m.cdf(
            np.array([f.support.a, f.support.b]))
        expo = 0.5 * (p.recip - q.recip)
        mass = t_hi - t_lo
        rs = mass * np.exp(rng.uniform(np.log(1e-3), np.log(30.0), 100))
        many = _scale_values(table, p, expo, t0, t_lo, t_hi, rs)
        one = [_scale_value(table, p, expo, t0, t_lo, t_hi, r) for r in rs.tolist()]
        assert np.array_equal(many, one)
        assert np.array_equal(many, _parent_scale_values(table, p, expo, t0,
                                                         t_lo, t_hi, rs))


def test_one_scale_value_of_a_point_range_is_one_block():
    # t_lo = t_hi still meets one block, as _block_edges lays it out,
    # also when the point is a block edge (0.5 at r = 0.25).
    table = LqTable(LEB, CHI01, Exponent.of(1))
    rs = np.array([0.25, 0.1, 0.7])
    for t_pt in (0.5, 0.3):
        for p in (Exponent.of(2), Exponent.of(math.inf)):
            want = _parent_scale_values(table, p, -0.5, 0.0, t_pt, t_pt, rs)
            assert want.min() > 0.0
            assert [_scale_value(table, p, -0.5, 0.0, t_pt, t_pt, r)
                    for r in rs.tolist()] == want.tolist()


# ---------------------------------------------------------------------------
# Sups at q = inf: one interval at a time


def _parent_lq_sup(m, f, interval):
    """lq_norm at q = inf as it was written for one interval."""
    t_lo, t_hi = m.cdf(interval.a), m.cdf(interval.b)
    marked = [x for x in (*f.singularities, *f.breakpoints) if interval.a <= x < interval.b]
    marked.append(np.nextafter(interval.b, -np.inf))
    ts = t_lo + (t_hi - t_lo) * (np.arange(4097) + 0.5) / 4097
    with np.errstate(divide="ignore", over="ignore"):
        ends = np.abs(np.asarray(f(np.array([interval.a, *marked])), float))
        vals = np.concatenate([np.abs(np.asarray(f(m.inv_cdf(ts)), float)), ends])
    vals = vals[~np.isnan(vals)]
    return float(np.max(vals)) if vals.size else 0.0


SUP_FUNCTIONS = [tent(-1.0, 1.5), power_function(-0.5, (0.05, 2.0)),
                 riesz_kernel_function(0.5, (-1.0, 1.0)),
                 table_function([[-2.0, 0.0], [-1.5, 3.0], [-1.0, 0.0], [0.5, 0.0],
                                 [1.0, 1.0], [2.0, 0.0]]),
                 replace(CHI01, eval=lambda x: np.where(x < 0.5, np.nan, 1.0))]


@pytest.mark.parametrize("f", SUP_FUNCTIONS, ids=lambda f: f.label)
@pytest.mark.parametrize("m", [LEB, power_measure(0.5), CUSTOM],
                         ids=["lebesgue", "power0.5", "custom"])
def test_block_norm_q_inf_equals_the_per_block_sups(m, f):
    # The singular point 0 of the Riesz kernel and the spike's window end
    # 0.05 sit in one block each, the table's breakpoints in several;
    # 0.013 makes many blocks.
    for r, x0 in [(0.013, 0.0), (0.3, 0.37), (0.5, 0.05), (5.0, -0.2)]:
        t0, t_lo, t_hi = m.cdf(x0), m.cdf(f.support.a), m.cdf(f.support.b)
        xs = m.inv_cdf(_block_edges(t0, np.array([r]), t_lo, t_hi)[0])
        sups = [lq_norm(m, f, IntervalRC(a, b), "inf") for a, b in zip(xs[:-1], xs[1:])]
        assert sups == [_parent_lq_sup(m, f, IntervalRC(a, b))
                        for a, b in zip(xs[:-1], xs[1:])]
        assert block_norm(m, f, "inf", "inf", r, x0) == max(sups)
        with np.errstate(over="ignore"):    # the kernel's sups next to 0
            assert block_norm(m, f, "inf", 2, r, x0) == float(
                (np.array(sups) ** 2.0).sum() ** 0.5)


@pytest.mark.parametrize("f", SUP_FUNCTIONS, ids=lambda f: f.label)
@pytest.mark.parametrize("m", [LEB, power_measure(0.5)], ids=["lebesgue", "power0.5"])
def test_block_norm_q_inf_overflow_is_inf_without_a_warning(m, f):
    # The Riesz kernel's block just left of 0 reads |-5e-324|^-0.5, about
    # 1.4e161, whose square overflows: the norm is inf, and under the
    # suite's filterwarnings = error the call must not raise.  Finite
    # values keep their bits.
    for r, x0 in [(0.013, 0.0), (0.3, 0.37), (5.0, -0.2)]:
        got = block_norm(m, f, "inf", 2, r, x0)
        t0, t_lo, t_hi = m.cdf(x0), m.cdf(f.support.a), m.cdf(f.support.b)
        xs = m.inv_cdf(_block_edges(t0, np.array([r]), t_lo, t_hi)[0])
        sups = np.array([lq_norm(m, f, IntervalRC(a, b), "inf")
                         for a, b in zip(xs[:-1], xs[1:])])
        with np.errstate(over="ignore"):
            want = float((sups ** 2.0).sum() ** 0.5)
        assert got == want
        if f.label.startswith("riesz") and r == 0.013:
            assert got == np.inf


@pytest.mark.parametrize("f", SUP_FUNCTIONS, ids=lambda f: f.label)
def test_lq_sup_equals_the_one_interval_formula(f):
    rng = np.random.default_rng(5)
    for m in (LEB, power_measure(0.5), CUSTOM):
        for a, b in [sorted(rng.uniform(-2.5, 2.5, 2)) for _ in range(10)] + [
                (f.support.a, f.support.b), (-0.3, 0.0), (0.0, 0.05)]:
            iv = IntervalRC(float(a), float(b))
            assert lq_norm(m, f, iv, "inf") == _parent_lq_sup(m, f, iv)


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _on_glibc(), reason="the heap setting is glibc's mallopt")
def test_table_builds_reuse_freed_memory():
    # Each build's node-sized arrays (61,440 doubles) are freed and taken
    # again by the next build.  With glibc's default thresholds they went
    # back to the kernel and were faulted in again: about 330 minor faults
    # per build.  Importing amalgam keeps them in the heap.
    import resource

    m, f, q = power_measure(0.4), tent(-1.0, 1.5), Exponent.of(2)
    for _ in range(3):
        LqTable(m, f, q)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        LqTable(m, f, q)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 20

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
    riesz_kernel_function,
    scaled,
    table_function,
    tent,
)
from amalgam.measure import IntervalRC, lebesgue, make_interval, power_measure
from amalgam.norms import (
    Exponent,
    TrivialSpaceError,
    amalgam_norm,
    block_norm,
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
    assert level_set_mass(LEB, CHI01, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert level_set_mass(LEB, CHI01, 1.0) == 0.0
    assert level_set_mass(LEB, CHI01, 1.0, strict=False) == pytest.approx(1.0, abs=1e-12)


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
    assert level_set_mass(LEB, f, lam) == pytest.approx(width, rel=1e-9)

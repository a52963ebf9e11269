"""Function families: table_function's exact half-segment evaluation."""

from dataclasses import replace

import numpy as np
import pytest

from amalgam.functions import table_function, tent
from amalgam.measure import _gk_nodes, custom_measure, lebesgue, power_measure
from amalgam.norms import Exponent, LqTable

TABLES = {
    "tent": [[-1.0, 0.0], [0.25, 1.0], [1.5, 0.0]],
    "two_bumps": [[-2.0, 0.0], [-1.5, 3.0], [-1.0, 0.0], [0.5, 0.0], [1.0, 1.0],
                  [2.0, 0.0]],
    "zero_crossing": [[-1.0, 1.0], [0.0, -1.0], [1.0, 0.5], [2.0, 0.0]],
}


def _binary_search_eval(points, x):
    """table_function's values with each half-segment found by a binary
    search over the cuts (the knots and the segment midpoints): half h
    spans [cuts[h - 1], cuts[h]) and is valued from its own knot."""
    pts = np.asarray(points, float)
    xs, ys = pts[:, 0], pts[:, 1]
    n = len(xs)
    cuts = np.empty(2 * n - 1)
    cuts[0::2], cuts[1::2] = xs, (xs[:-1] + xs[1:]) / 2.0
    slope, knot, at = np.zeros((3, 2 * n))
    slope[1:-1] = np.repeat(np.diff(ys) / np.diff(xs), 2)
    knot[1:-1] = np.repeat(xs, 2)[1:-1]
    at[1:-1] = np.repeat(ys, 2)[1:-1]
    y = np.minimum(np.maximum(x, np.nextafter(xs[0], -np.inf)), xs[-1])
    h = cuts.searchsorted(y, side="right")
    return (y - knot[h]) * slope[h] + at[h]


def _probe_points(points):
    """The knots, every half-segment's midpoint, the doubles on both sides
    of every cut, points outside, +-inf and NaN."""
    xs = np.asarray(points, float)[:, 0]
    cuts = np.sort(np.concatenate([xs, (xs[:-1] + xs[1:]) / 2.0]))
    bounds = np.concatenate([[xs[0] - 1.0], cuts, [xs[-1] + 1.0]])
    return np.concatenate([
        xs, (bounds[:-1] + bounds[1:]) / 2.0,
        np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
        [-np.inf, np.inf, np.nan, xs[0] - 5.0, xs[-1] + 5.0]])


def _same(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("order", ["sorted", "unsorted"])
@pytest.mark.parametrize("fill", [0, 6000], ids=["few_points", "many_points"])
def test_table_values_equal_the_binary_search(name, order, fill):
    # Many points take the comparison sum over the cuts, few the search.
    points = TABLES[name]
    f = table_function(points)
    rng = np.random.default_rng(3)
    probe = _probe_points(points)
    x = np.concatenate([probe, rng.uniform(points[0][0] - 0.5, points[-1][0] + 0.5, fill)])
    x = np.sort(x) if order == "sorted" else rng.permutation(x)
    got = f(x)
    _same(got, _binary_search_eval(points, x))
    assert got[np.isnan(x)].size == 1 and np.isnan(got[np.isnan(x)]).all()
    assert not got[np.isinf(x)].any()
    outside = (x < points[0][0]) | (x >= points[-1][0])
    assert not got[outside & ~np.isnan(x)].any()
    _same(f(x[None, :])[0], got)


def test_many_cuts_take_the_binary_search():
    points = [[float(v), float(np.sin(3.0 * v))] for v in np.linspace(-2.0, 2.0, 40)]
    f = table_function(points)
    x = np.random.default_rng(4).permutation(
        np.concatenate([_probe_points(points), np.linspace(-3.0, 3.0, 5000)]))
    _same(f(x), _binary_search_eval(points, x))


# Many points (at least this many) and few cuts take the comparison sum
# or, on ascending input, the half-segment slices; fewer points take the
# binary search.
MANY = 2048


def _ascending_points(points, size, rng):
    """size ascending, NaN-free points: every cut, the doubles on both
    sides of it, a run of equal values at each knot, +-inf, and uniform
    draws around the support."""
    probe = _probe_points(points)
    xs = np.asarray(points, float)[:, 0]
    probe = np.concatenate([probe[~np.isnan(probe)], (xs[:-1] + xs[1:]) / 2.0,
                            np.repeat(xs, 5)])
    fill = rng.uniform(xs[0] - 0.5, xs[-1] + 0.5, size - probe.size)
    return np.sort(np.concatenate([probe, fill]))


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("shape", [(MANY - 1,), (23, 89), (23, 1, 89),
                                   (MANY,), (2, 1024), (2, 4, 256),
                                   (6000,), (3, 2000), (3, 2, 1000)], ids=str)
def test_ascending_values_equal_the_binary_search(name, shape):
    points = TABLES[name]
    f = table_function(points)
    x = _ascending_points(points, int(np.prod(shape)), np.random.default_rng(5)).reshape(shape)
    assert np.all(np.diff(x.reshape(-1)) >= 0) and np.isinf(x).sum() == 2
    got = f(x)
    assert got.shape == x.shape
    _same(got.reshape(-1), _binary_search_eval(points, x).reshape(-1))


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("order", ["descending", "last_two_swapped"])
def test_nearly_ascending_values_equal_the_binary_search(name, order):
    # Inside the support, up to the last segment's midpoint: the swapped
    # pair is that cut and the double below it, in two halves.
    points = TABLES[name]
    x = _ascending_points(points, 6000, np.random.default_rng(6))
    mid = (points[-2][0] + points[-1][0]) / 2.0
    x = np.unique(x[(x > points[0][0]) & (x <= mid)])
    assert x[-1] == mid and x[-2] == np.nextafter(mid, -np.inf)
    if order == "descending":
        x = x[::-1].copy()
    else:
        x[[-2, -1]] = x[[-1, -2]]
    _same(table_function(points)(x), _binary_search_eval(points, x))


def _permuted(f, seed):
    """f with every input evaluated in a shuffled order and put back, so
    that it never sees ascending points."""
    def ev(x):
        flat = x.reshape(-1)
        perm = np.random.default_rng(seed).permutation(flat.size)
        out = np.empty(flat.size)
        out[perm] = f(flat[perm])
        return out.reshape(x.shape)
    return replace(f, eval=ev)


@pytest.mark.parametrize("m", [lebesgue(), power_measure(0.5),
                               custom_measure([[-2.0, 1.0], [-0.5, 0.4], [0.5, 2.0],
                                               [2.0, 1.0]], left_exp=0.5, right_exp=0.0)],
                         ids=["lebesgue", "power0.5", "custom"])
def test_table_build_nodes_take_the_slices_bit_for_bit(m):
    # A tent's LqTable evaluates it once on the Gauss-Kronrod nodes of
    # its cells, which ascend; the shuffled evaluation takes the
    # comparison sum instead.
    f = tent(-1.0, 1.5)
    table = LqTable(m, f, Exponent.of(2.0))
    nodes, _ = _gk_nodes(table.t_edges[:-1], table.t_edges[1:])
    x = m.inv_cdf(nodes)
    assert x.size >= MANY and np.all(np.diff(x.reshape(-1)) >= 0)
    _same(f(x).reshape(-1), _permuted(f, 7)(x).reshape(-1))
    slow = LqTable(m, _permuted(f, 8), Exponent.of(2.0))
    assert table.cum.tobytes() == slow.cum.tobytes()

"""Function families: table_function's exact half-segment evaluation."""

import numpy as np
import pytest

from amalgam.functions import table_function

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

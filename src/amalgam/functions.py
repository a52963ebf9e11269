"""Concrete test functions with declared analytic structure.

A RealFunction bundles a vectorized evaluator with the structure the
numerics can exploit: effective support, kinks and jumps (breakpoints),
singular points, and ideally the superlevel sets of |f| in closed form,
as one sub-interval per monotone piece of |f| for a whole array of
levels (RealFunction.levels).  norms.level_set_mass turns those into
masses; functions without them (products, restrictions) are sampled by
weak_norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .measure import IntervalRC

__all__ = [
    "RealFunction",
    "indicator",
    "tent",
    "power_function",
    "riesz_kernel_function",
    "table_function",
    "scaled",
    "product",
    "power_twist",
    "make_function",
]


@dataclass(frozen=True)
class RealFunction:
    """A real function on the line with declared effective support.

    f vanishes outside `support`.  When a closed form is known,
    `levels(lams, strict)` gives {|f| > lam} (or {|f| >= lam}) for every
    lam of the 1-d array lams as two float arrays lo, hi of shape
    (pieces, len(lams)): piece i of level j is [lo[i, j], hi[i, j]], one
    per monotone piece of |f|, with lo <= hi, lo == hi for an empty piece,
    and no two pieces overlapping.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    support: IntervalRC
    label: str
    singularities: tuple[float, ...] = ()
    breakpoints: tuple[float, ...] = ()
    levels: Callable[[np.ndarray, bool], tuple[np.ndarray, np.ndarray]] | None = None

    def __call__(self, x):
        return self.eval(np.asarray(x, float))

    def __repr__(self):
        return f"RealFunction({self.label})"


def indicator(a: float, b: float) -> RealFunction:
    """Characteristic function of [a, b)."""
    if b <= a:
        raise ValueError("indicator needs a < b")

    def ev(x):
        return ((x >= a) & (x < b)).astype(float)

    def levels(lams, strict):
        ok = (lams < 1.0) if strict else (lams <= 1.0)
        return np.full((1, lams.size), a), np.where(ok, b, a)[None, :]

    return RealFunction(eval=ev, support=IntervalRC(a, b), label=f"indicator[{a},{b})",
                        breakpoints=(a, b), levels=levels)


def table_function(points: Sequence[Sequence[float]], label: str | None = None) -> RealFunction:
    """Piecewise linear interpolant through [x, y] pairs, zero outside."""
    pts = np.asarray(points, float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("table function needs at least two [x, y] pairs")
    if np.any(np.diff(pts[:, 0]) <= 0):
        raise ValueError("table abscissae must be strictly increasing")
    xs, ys = pts[:, 0].copy(), pts[:, 1].copy()

    # Refine the knot list with the zero crossings of y so that |f| is
    # linear on every refined segment; level sets then come in closed form.
    rx, ry = [xs[0]], [ys[0]]
    for i in range(len(xs) - 1):
        y0, y1 = ys[i], ys[i + 1]
        if y0 * y1 < 0:
            xc = xs[i] - y0 * (xs[i + 1] - xs[i]) / (y1 - y0)
            rx.append(xc)
            ry.append(0.0)
        rx.append(xs[i + 1])
        ry.append(y1)
    rx = np.asarray(rx)
    ay = np.abs(ry)
    # Each half of a segment is evaluated from its own knot, so next to a
    # zero knot the value is slope * (x - knot), with no cancellation
    # against the far knot's y.  Half h = 1 .. 2n - 2 spans
    # [cuts[h - 1], cuts[h]); h = 0 and 2n - 1 lie outside, with slope,
    # knot and value 0.  x is clipped first, so that +-inf gives 0 too.
    n = len(xs)
    cuts = np.empty(2 * n - 1)
    cuts[0::2], cuts[1::2] = xs, (xs[:-1] + xs[1:]) / 2.0
    slope, knot, at = np.zeros((3, 2 * n))
    slope[1:-1] = np.repeat(np.diff(ys) / np.diff(xs), 2)
    knot[1:-1] = np.repeat(xs, 2)[1:-1]
    at[1:-1] = np.repeat(ys, 2)[1:-1]
    lo = np.nextafter(xs[0], -np.inf)
    few_cuts = cuts.size <= 32
    scalars = list(zip(knot.tolist(), slope.tolist(), at.tolist()))

    def ascending(flat):
        # True for NaN-free, non-decreasing points.  A strided sample
        # turns unsorted points (a profile's ladders) away before the
        # full pass.
        sample = flat[::64]
        return bool((sample[1:] >= sample[:-1]).all()
                    and (flat[1:] >= flat[:-1]).all())

    def ev(x):
        # In place on one copy of x: a table build evaluates 61,440 nodes
        # at once, and each extra temporary of that size costs about as
        # much as the arithmetic.
        y = np.maximum(x, lo, out=np.empty(x.shape))
        flat = y.reshape(-1)
        np.minimum(flat, xs[-1], out=flat)
        if not (few_cuts and flat.size >= 2048):
            # A binary search per point: few points, or many cuts.  A
            # NaN point gets half 2n - 1 here and 0 in the comparison sum
            # below: both have slope 0 and give NaN.
            h = cuts.searchsorted(flat, side="right")
        elif ascending(flat):
            # Ascending points (a table build's nodes, sample grids): one
            # search of the cuts into the points gives every half's
            # slice, valued in place from the half's three scalars.
            ends = flat.searchsorted(cuts, side="left").tolist()
            for start, end, (k, s, a) in zip([0, *ends], [*ends, flat.size], scalars):
                part = flat[start:end]
                part -= k
                part *= s
                part += a
            return y
        else:
            # Unsorted points (a profile's ladders): a binary search per
            # point would branch on guesses, and a sum of byte
            # comparisons, one pass per cut, is 4x faster.
            h = np.zeros(flat.shape, np.uint8)
            hit = np.empty(flat.shape, bool)
            for c in cuts:
                h += np.greater_equal(flat, c, out=hit).view(np.uint8)
            h = h.astype(np.intp)
        part = knot[h]
        flat -= part
        flat *= slope.take(h, out=part)
        flat += at.take(h, out=part)
        return y

    # One piece per refined segment, on which |f| is linear: the part
    # above lam starts (rising) or ends (falling) where the line crosses
    # lam, and a plateau is all or nothing.
    x0, x1 = rx[:-1, None], rx[1:, None]
    y0, y1 = ay[:-1, None], ay[1:, None]

    def levels(lams, strict):
        with np.errstate(divide="ignore", invalid="ignore"):
            xc = np.clip(x0 + (lams - y0) / (y1 - y0) * (x1 - x0), x0, x1)
        plateau = np.where((y0 > lams) if strict else (y0 >= lams), x1, x0)
        return (np.where(y1 > y0, xc, x0),
                np.where(y1 > y0, x1, np.where(y1 < y0, xc, plateau)))

    lbl = label or f"table[{xs[0]},{xs[-1]})"
    return RealFunction(eval=ev, support=IntervalRC(float(xs[0]), float(xs[-1])),
                        label=lbl, breakpoints=tuple(float(v) for v in rx), levels=levels)


def tent(a: float, b: float, height: float = 1.0) -> RealFunction:
    """Triangular bump peaking at the Euclidean midpoint of [a, b]."""
    mid = 0.5 * (a + b)
    f = table_function([[a, 0.0], [mid, height], [b, 0.0]], label=f"tent[{a},{b}]")
    return f


def power_function(exponent: float, window: tuple[float, float],
                   coefficient: float = 1.0) -> RealFunction:
    """coefficient * |x|^exponent restricted to the window [w0, w1)."""
    w0, w1 = float(window[0]), float(window[1])
    if w1 <= w0:
        raise ValueError("power function window must have positive length")
    e, c = float(exponent), float(coefficient)
    sing = (0.0,) if (e < 0 and w0 <= 0.0 <= w1) else ()

    def ev(x):
        with np.errstate(divide="ignore"):
            out = c * np.abs(x) ** e
        return np.where((x >= w0) & (x < w1), out, 0.0)

    def levels(lams, strict):
        if e == 0.0 or c == 0.0:
            ok = (abs(c) > lams) if strict else (abs(c) >= lams)
            return np.full((1, lams.size), w0), np.where(ok, w1, w0)[None, :]
        # |x|-threshold xc: |c| |x|^e > lam, a set around 0 for e < 0 and
        # the window's two ends for e > 0.  Strictness is immaterial off
        # plateaus.
        with np.errstate(divide="ignore"):
            xc = (np.maximum(lams, 0.0) / abs(c)) ** (1.0 / e)
        neg, pos = np.clip([-xc, xc], w0, w1)
        if e < 0.0:
            return neg[None, :], pos[None, :]
        return np.stack([np.full_like(xc, w0), pos]), np.stack([neg, np.full_like(xc, w1)])

    return RealFunction(eval=ev, support=IntervalRC(w0, w1),
                        label=f"|x|^{e}on[{w0},{w1})",
                        singularities=sing, breakpoints=(w0, w1) + ((0.0,) if w0 < 0 < w1 else ()),
                        levels=levels)


def riesz_kernel_function(gamma: float, window: tuple[float, float]) -> RealFunction:
    """|x|^(gamma-1) truncated to the window; 0 < gamma < 1."""
    if not (0.0 < gamma < 1.0):
        raise ValueError("Riesz exponent gamma must lie in (0, 1)")
    f = power_function(gamma - 1.0, window)
    return replace(f, label=f"riesz{gamma}on[{window[0]},{window[1]})")


def scaled(f: RealFunction, c: float) -> RealFunction:
    """c * f with level structure preserved."""
    c = float(c)
    base_levels = f.levels
    levels = None
    if base_levels is not None and c != 0.0:
        def levels(lams, strict, _b=base_levels, _c=abs(c)):
            return _b(lams / _c, strict)
    return replace(f, eval=(lambda x, _e=f.eval, _c=c: _c * _e(x)),
                   label=f"{c}*{f.label}", levels=levels)


def product(f: RealFunction, g_eval: Callable, label: str,
            extra_singularities: Sequence[float] = (),
            extra_breakpoints: Sequence[float] = ()) -> RealFunction:
    """f times a plain vectorized factor; analytic level structure is lost."""
    return RealFunction(
        eval=(lambda x, _f=f.eval, _g=g_eval: _f(x) * _g(x)),
        support=f.support, label=label,
        singularities=tuple(sorted({*f.singularities, *map(float, extra_singularities)})),
        breakpoints=tuple(sorted({*f.breakpoints, *map(float, extra_breakpoints)})),
        levels=None)


def power_twist(f: RealFunction, a: float) -> RealFunction:
    """|x|^a * f(x); the factor that converts Lebesgue data to |x|^-a dx."""
    if a == 0.0:
        return f
    extra_break = (0.0,) if f.support.a < 0 < f.support.b else ()
    extra_sing = (0.0,) if a < 0 else ()
    return product(f, lambda x: np.abs(x) ** a, label=f"|x|^{a}*{f.label}",
                   extra_singularities=extra_sing, extra_breakpoints=extra_break)


def make_function(spec: dict) -> RealFunction:
    """Build a family member from its JSON-style spec block."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("function spec must be a dict with a 'kind' field")
    kind = spec["kind"]
    if kind == "indicator":
        return indicator(spec["a"], spec["b"])
    if kind == "tent":
        return tent(spec["a"], spec["b"], spec.get("height", 1.0))
    if kind == "power":
        return power_function(spec["exp"], tuple(spec["window"]),
                              spec.get("coefficient", 1.0))
    if kind == "riesz_kernel":
        window = tuple(spec.get("window", (-1.0, 1.0)))
        return riesz_kernel_function(spec["gamma"], window)
    if kind == "table":
        return table_function(spec["points"])
    raise ValueError(f"unknown function kind {kind!r}")


"""Radon measures on the line and quadrature in measure coordinates.

Every measure here is given by a locally integrable density w >= 0 with
infinite mass on both half lines.  The signed cumulative function

    F(x) = mu([0, x))   for x >= 0,   F(x) = -mu([x, 0))   for x < 0

is a continuous increasing bijection of R, so the substitution t = F(x)
turns any integral against mu into a plain Lebesgue integral:

    int_[a,b) g dmu = int_{F(a)}^{F(b)} g(F^{-1}(t)) dt.

All quadrature is done in the t coordinate.  Equal-mass partitions are
exact by construction (breakpoints are F^{-1} of an arithmetic grid),
and integrable endpoint singularities are handled by a dyadically graded
ladder of panels with a geometric tail estimate.  This module owns that
core for every caller (integrate, _interval_integrals, LqTable, and
potential and potential_profile in operators): the cuts at singular
points and breakpoints (_cuts), the ladder panels (_ladder_edges,
_segment_runs), its tail and divergence test (_ladder_tail), and the
snap of an end that F rounds beside a singular point onto it (_snap).

A cell with no singular end that one Gauss-Kronrod pass does not settle
is bisected in QUADPACK's globally adaptive order (Piessens et al.
1983: split the panel of largest error estimate until the summed
estimate meets the tolerance).  One driver, _bisect, does this for
every caller (the flagged cells of _interval_integrals, the plain
segments of _integrate_t): all the cells of a call run in lockstep, one
gk_panels call per round, and each call also makes the next halvings
toward both ends of every panel it splits, so a cell that bisects toward
a cusp at its end needs a call per nine splits, not per split.  Its
values are those of each cell run alone, one split at a time, bit for
bit: each cell replays the same pops, splits and running sums, and every
pass is valued as a stacked (K, 1, 15) or (P, 2, 15) product, whose
rows round as the lone (1, 15) and (2, 15) products do (a flat (2P, 15)
product does not).

F and F^-1 of one float are computed in Python floats with numpy's
operation order, on all three kinds of measure; Python's float pow is
the libm pow that numpy's 0-d ** calls, so the bits are the same as on
the 0-d numpy path, at about a tenth of its cost on a power measure
and a thirtieth on a custom one.  A custom measure bisects lists of its
inner knots and of F at them, and an exponent-1 tail keeps numpy's log
and exp, from which math's round apart.  Arrays keep numpy: its array
pow may round apart from the scalar one in the last place.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "EvaluationError",
    "QuadratureError",
    "DivergenceError",
    "IntervalRC",
    "Partition",
    "RadonMeasure",
    "make_measure",
    "lebesgue",
    "power_measure",
    "custom_measure",
    "make_interval",
    "integrate",
    "partition",
    "growth_constant",
]


class EvaluationError(ValueError):
    """An integrand produced NaN (or an unexpected non-finite value)."""

    def __init__(self, message: str, location: float | None = None):
        super().__init__(message)
        self.location = location


class QuadratureError(RuntimeError):
    """Requested accuracy not reached; carries the best estimate."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class DivergenceError(QuadratureError):
    """Graded panel sums do not decay: the integral looks divergent."""

    def __init__(self, message: str = "graded panel sums do not decay toward "
                 "the singular endpoint", *, partial_sums: np.ndarray):
        total = float(np.sum(partial_sums))
        super().__init__(message, estimate=total, error_bound=float("inf"))
        self.partial_sums = partial_sums


# 15-point Kronrod rule with the embedded 7-point Gauss rule on [-1, 1].
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # ascending, 15 nodes
GK_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_wg_full = np.zeros(15)
_wg_full[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])     # Gauss nodes sit at odd slots
G_WEIGHTS = _wg_full

_MAX_DEPTH = 40
_MAX_PANELS = 20000
_PREFETCH = 8      # halvings made ahead toward each end of a split panel
_LADDER_SCALES = 2.0 ** -np.arange(40)     # panel widths over the ladder's span


def _gk_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod nodes of the panels [lo, hi] and their half widths."""
    half = 0.5 * (hi - lo)
    nodes = half[..., None] * GK_NODES
    nodes += (0.5 * (lo + hi))[..., None]     # in place: one node array, not two
    return nodes, half


def gk_panels(phi: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single Gauss-Kronrod pass over a batch of panels [lo_i, hi_i].

    Returns (values, error estimates); phi must accept ndarray input.
    """
    nodes, half = _gk_nodes(np.asarray(lo, float), np.asarray(hi, float))
    vals = phi(nodes.ravel()).reshape(nodes.shape)
    if np.isnan(vals).any():
        bad = nodes.ravel()[np.isnan(vals).ravel()][0]
        raise EvaluationError(f"integrand returned NaN near t={bad!r}", location=float(bad))
    with np.errstate(invalid="ignore"):
        k15 = half * (vals @ GK_WEIGHTS)
        g7 = half * (vals @ G_WEIGHTS)
        err = np.abs(k15 - g7)
    # An infinity at a quadrature node (integrand pole hit exactly) makes
    # the panel estimate meaningless; report zero value with infinite
    # error so the adaptive driver splits it away from the pole.
    bad = ~np.isfinite(k15)
    if bad.any():
        k15 = np.where(bad, 0.0, k15)
        err = np.where(bad, np.inf, err)
    return k15, err


def _bisection(lo: float, hi: float, tol: float):
    """Globally adaptive G-K bisection of one cell [lo, hi] in QUADPACK's
    order (split the panel of largest error estimate), as a coroutine of
    _bisect.  It yields each G-K pass it needs as (a, b, depth): the
    whole cell first (depth None), then the two halves of each panel
    [a, b] it splits.  It is sent back their values and error estimates,
    and returns the integral or raises QuadratureError."""
    (val,), (err,) = yield lo, hi, None
    heap = [(-err, 0, lo, hi, val, err)]
    total, total_err = val, err
    stuck_err = 0.0   # error frozen in depth-exhausted panels
    count = 1
    while True:
        target = tol * max(abs(total), 1e-14)
        if total_err <= target:
            return total
        if not heap or count >= _MAX_PANELS:
            raise QuadratureError(
                "quadrature stalled before reaching tolerance",
                estimate=total, error_bound=total_err)
        _, depth, a, b, v, e = heapq.heappop(heap)
        if depth >= _MAX_DEPTH:
            stuck_err += e
            # Frozen error already exceeding the budget cannot be split
            # away; give up with the best estimate in hand.
            if stuck_err > tol * max(abs(total), 1e-14):
                raise QuadratureError(
                    "max halving depth reached before tolerance",
                    estimate=total, error_bound=total_err)
            continue
        mid = 0.5 * (a + b)
        (v0, v1), (e0, e1) = yield a, b, depth
        total += (v0 + v1) - v
        total_err += (e0 + e1) - e
        heapq.heappush(heap, (-e0, depth + 1, a, mid, v0, e0))
        heapq.heappush(heap, (-e1, depth + 1, mid, b, v1, e1))
        count += 2


def _halvings(a: float, b: float, depth: int) -> list:
    """The panel (a, b) and the first _PREFETCH halvings of it toward each
    of its ends (fewer near _MAX_DEPTH): the panels that a bisection
    toward an end of (a, b) splits next."""
    keys = [(a, b)]
    left = right = 0.5 * (a + b)
    for _ in range(min(_PREFETCH, _MAX_DEPTH - 1 - depth)):
        keys += [(a, left), (right, b)]
        left, right = 0.5 * (a + left), 0.5 * (right + b)
    return keys


def _pass_edges(keys: list, split: bool) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of one G-K pass per panel (a, b) of keys, shaped (n, 1),
    or of passes over its two halves, shaped (n, 2)."""
    ab = np.array(keys, float).reshape(-1, 2)
    a, b = ab[:, :1], ab[:, 1:]
    if not split:
        return a, b
    mid = 0.5 * (a + b)
    return np.hstack([a, mid]), np.hstack([mid, b])


def _guarded_panels(phi: Callable, lo: np.ndarray, hi: np.ndarray):
    """gk_panels(phi, lo, hi) as lists, or None if it raised or if a
    floating-point error in it would have warned or raised."""
    watch = {kind: "call" for kind, mode in np.geterr().items() if mode != "ignore"}
    hits = []
    try:
        with np.errstate(call=lambda kind, flag: hits.append(kind), **watch):
            vals, err = gk_panels(phi, lo, hi)
    except Exception:     # any exception: the redo raises it again
        return None
    return None if hits else (vals.tolist(), err.tolist())


def _bisect(phi: Callable, lo, hi, tol: float, halt: bool = False) -> list:
    """Globally adaptive G-K integrals of phi over the cells [lo[i], hi[i]].

    Every cell runs _bisection, and the cells run in lockstep: each
    round, each cell runs until it needs a pass that is not known yet,
    and one gk_panels call makes all of them.  The first passes of K
    cells are one (K, 1, 15) product and the halves of P split panels
    one (P, 2, 15) product, so every value has the bits of the lone
    (1, 15) or (2, 15) product of a cell run by itself (a flat
    (2P, 15) product rounds apart).  Split panels are cached by their
    ends, and each call also makes the halvings of every panel it
    splits toward both of its ends (_halvings), so a cell that bisects
    toward a cusp at one of its ends makes _PREFETCH + 1 splits per
    call.

    A call that raises, or in which a floating-point error would warn
    or raise, is redone one cell at a time in cell order without the
    prefetched panels, so every warning and exception is one that the
    cells give when run one after another.  A cell whose pass raises
    stops the loop there, as in such a run: the later cells are
    dropped, the earlier ones run on, and the exception of the first
    cell that stopped is raised at the end.  With halt, a
    QuadratureError stops the loop in the same way; without it, it is
    returned in the cell's place.
    """
    cells = [_bisection(float(a), float(b), tol) for a, b in zip(lo, hi)]
    out = [None] * len(cells)
    wants = {i: next(cell) for i, cell in enumerate(cells)}
    cache = {}
    stopped = None

    def stop(i, exc):
        nonlocal stopped
        stopped = exc     # the cells after i are dropped: a later stop is earlier
        for j in [j for j in wants if j >= i]:
            del wants[j]

    def run(i, reply):
        """Send reply to cell i and run it on cached passes until it
        needs a new pass or ends."""
        try:
            want = cells[i].send(reply)
            while want[:2] in cache:
                want = cells[i].send(cache[want[:2]])
        except StopIteration as done:
            out[i] = done.value
        except QuadratureError as exc:
            out[i] = exc
            if halt:
                stop(i, exc)
                return
        else:
            wants[i] = want
            return
        del wants[i]

    split = False     # the first round makes the first passes
    while wants:
        keys = [w[:2] for w in wants.values()]
        if split:
            keys = list(dict.fromkeys(key for a, b, depth in wants.values()
                                      for key in _halvings(a, b, depth)
                                      if key not in cache))
        # A call of one pass makes what a lone cell makes: no guard.
        got = _guarded_panels(phi, *_pass_edges(keys, split)) if len(keys) > 1 else None
        if got is not None:
            passes = dict(zip(keys, zip(*got)))
        else:
            passes = {}
            for i, (a, b, _) in list(wants.items()):
                try:
                    vals, err = gk_panels(phi, *_pass_edges([(a, b)], split))
                except Exception as exc:
                    stop(i, exc)
                    break
                passes[a, b] = (vals.tolist()[0], err.tolist()[0])
        if split:
            cache.update(passes)
        for i in list(wants):
            if i in wants:
                run(i, passes[wants[i][:2]])
        split = True
    if stopped is not None:
        raise stopped
    return out


def _ladder_edges(t_sing, t_far):
    """Dyadic panels (lo, hi) from t_far down to the singular end t_sing,
    one row per point when the ends are arrays of per-point values."""
    t_sing = np.asarray(t_sing, float)[..., None]
    h = np.asarray(t_far, float)[..., None] - t_sing
    step = np.sign(h) * (np.abs(h) * _LADDER_SCALES)
    near = t_sing + step / 2.0
    far = t_sing + step
    return np.minimum(near, far), np.maximum(near, far)


def _ladder_ends(a, b, sing_a: bool, sing_b: bool):
    """(singular end, far end) of each ladder of the segment [a, b]; a
    segment singular at both ends gets two ladders meeting at its middle."""
    if sing_a and sing_b:
        mid = 0.5 * (a + b)
        return [(a, mid), (b, mid)]
    return [(a, b)] if sing_a else [(b, a)] if sing_b else []


def _segment_runs(a, b, sing_a: bool, sing_b: bool, base: int):
    """Panel runs (lo, hi, graded) of the segment [a, b]: its ladders, or
    `base` equal panels when neither end is singular."""
    if sing_a or sing_b:
        return [(*_ladder_edges(s, far), True)
                for s, far in _ladder_ends(a, b, sing_a, sing_b)]
    edges = np.linspace(a, b, base + 1, axis=-1)
    return [(edges[..., :-1], edges[..., 1:], False)]


def _ladder_tail(panel_sums: np.ndarray, tol: float):
    """Geometric-tail remainders of ladders (one per row, innermost panel
    last) and a mask of the rows that diverge.

    A tail is added when the last panel exceeds tol times the largest.
    Its ratio rho to the one before is < 1 for an integrable singularity
    (2^-(e+1) for t^e); rho >= 0.98 counts as diverging.  Rows without a
    tail get -0.0, which leaves any sum it is added to unchanged.

    A non-finite panel counts as 0, as gk_panels reports it, unless the
    row has grown into it: when the two panels before the first
    non-finite one have rho >= 0.98 (or there are fewer than two), the
    integrand overflowed and the row diverges.  A decaying row only
    rounded a node onto the singular point.
    """
    p = np.atleast_2d(panel_sums)
    finite = np.isfinite(p)
    mags = np.where(finite, np.abs(p), 0.0)
    last = mags[:, -1]
    tail = last > tol * np.maximum(mags.max(axis=1), 1e-300)
    first = np.where(finite.all(axis=1), p.shape[1], finite.argmin(axis=1))
    rows = np.arange(p.shape[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rho = last / np.maximum(mags[:, -2], 1e-300)
        rem = np.where(tail, p[:, -1] * rho / (1.0 - rho), -0.0)
        rho_in = (mags[rows, np.maximum(first - 1, 0)]
                  / np.maximum(mags[rows, np.maximum(first - 2, 0)], 1e-300))
    overflow = (first < p.shape[1]) & ((first < 2) | (rho_in >= 0.98))
    return rem, (tail & (rho >= 0.98)) | overflow


def _ladder(phi: Callable, t_sing: float, t_far: float, tol: float) -> float:
    """Integrate phi between a singular endpoint t_sing and t_far over one
    ladder closed by its tail; raises DivergenceError if it diverges."""
    if t_far - t_sing == 0.0:
        return 0.0
    vals, err = gk_panels(phi, *_ladder_edges(t_sing, t_far))
    # gk_panels gives a non-finite panel value 0 and error inf.
    raw = np.where(np.isinf(err), np.inf, vals)
    rem, diverging = _ladder_tail(raw, tol)
    if diverging[0]:
        raise DivergenceError(partial_sums=raw)
    return float(np.sum(vals)) + rem[0]


def _cuts(t_lo: float, t_hi: float, singular_ts: Sequence[float],
          break_ts: Sequence[float]) -> tuple[list, list]:
    """Sorted cuts of [t_lo, t_hi] and their singular flags: the ends, the
    singular points in [t_lo, t_hi] and the breakpoints strictly inside."""
    sing = {float(t) for t in singular_ts if t_lo <= t <= t_hi}
    cuts = sorted({t_lo, t_hi, *sing,
                   *(float(t) for t in break_ts if t_lo < t < t_hi)})
    return cuts, [c in sing for c in cuts]


def _snap(t: np.ndarray, singular_ts: Sequence[float]) -> np.ndarray:
    """t with every value within 8 eps max(1, |t|) of a singular point
    moved onto it.

    F may round an end that sits on a singular point (F(0) of a custom
    measure is not exactly 0) to a float beside it.  Left there, the end
    leaves the point outside its interval, with the pole a rounding error
    away, and the quadrature stalls; on the point, the point gets its
    ladder.
    """
    sing = np.asarray(singular_ts, float)
    if sing.size == 0:
        return t
    ulps = 8.0 * np.finfo(float).eps * max(1.0, float(np.abs(t).max()))
    s = sing[np.abs(t[..., None] - sing).argmin(axis=-1)]
    return np.where(np.abs(t - s) <= ulps, s, t)


def _integrate_t(phi: Callable, t_lo: float, t_hi: float, tol: float,
                 singular_ts: Sequence[float] = (),
                 break_ts: Sequence[float] = ()) -> float:
    """Integrate phi over [t_lo, t_hi] splitting at the given t points."""
    if t_hi <= t_lo:
        return 0.0
    cuts, sing = _cuts(t_lo, t_hi, singular_ts, break_ts)
    segments = list(zip(cuts[:-1], cuts[1:], sing[:-1], sing[1:]))
    # The ladders run first, then the plain segments before the first
    # ladder that raised, so the failure raised is the first in cut order.
    ladders, failed = [], None
    for a, b, sa, sb in segments:
        try:
            ladders.append([_ladder(phi, s, far, tol)
                            for s, far in _ladder_ends(a, b, sa, sb)])
        except Exception as exc:
            failed = exc
            break
    plain = [(a, b) for (a, b, sa, sb), _ in zip(segments, ladders) if not (sa or sb)]
    sums = iter(_bisect(phi, [a for a, _ in plain], [b for _, b in plain], tol,
                        halt=True))
    if failed is not None:
        raise failed
    total = 0.0
    for parts in ladders:
        for value in parts or [next(sums)]:    # a plain segment has no ladder
            total += value
    return total


@dataclass(frozen=True)
class IntervalRC:
    """Half-open interval [a, b) with an optionally cached mu-mass."""

    a: float
    b: float
    mass: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if self.b <= self.a:
            raise ValueError(f"need a < b, got [{self.a}, {self.b})")

    @property
    def width(self) -> float:
        return self.b - self.a

    def contains(self, x: float) -> bool:
        return self.a <= x < self.b


@dataclass(frozen=True)
class Partition:
    """Equal-mass partition breakpoints: F(a_i) = F(x0) + i*r."""

    x0: float
    r: float
    i_lo: int
    breakpoints: np.ndarray   # ascending, len >= 2


def _by_piece(v: np.ndarray, lo: float, hi: float, inside, below, above) -> np.ndarray:
    """inside(v) on lo <= v <= hi (and NaN), below(v) on v < lo and
    above(v) on v > hi, each evaluated on its own points only."""
    low, high = v < lo, v > hi
    if not (low.any() or high.any()):
        return inside(v)
    out = np.empty_like(v)
    mid = ~(low | high)
    out[mid] = inside(v[mid])
    out[low] = below(v[low])
    out[high] = above(v[high])
    return out


class _CustomTable:
    """Piecewise linear density on a window plus power-law tails.

    The cumulative function is piecewise quadratic inside the window and
    closed-form on the tails, so cdf and inv_cdf are exact (no iteration).
    Each segment's slope, and its branch of the quadratic's root, are
    set once; a point gathers them.  The array methods take arrays of
    ndim >= 1 and value each point by its own piece only, so a formula
    that cannot hold at a point is never evaluated there.  cdf_one and
    inv_cdf_one run the same formulas in the same order in Python
    floats, with bisect on lists of the same values.
    """

    def __init__(self, xs: np.ndarray, ws: np.ndarray, left_exp: float, right_exp: float):
        if len(xs) < 2:
            raise ValueError("density table needs at least two points")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("density table abscissae must be strictly increasing")
        if np.any(ws < 0):
            raise ValueError("density values must be nonnegative")
        if not (xs[0] < 0 < xs[-1]):
            raise ValueError("density window must contain 0 in its interior")
        if ws[0] <= 0 or ws[-1] <= 0:
            raise ValueError("zero-mass tail: window-edge density must be positive")
        if left_exp > 1 or right_exp > 1:
            raise ValueError("tail exponent > 1 gives finite tail mass; both half "
                             "lines must carry infinite mass")
        if np.any((ws[:-1] == 0) & (ws[1:] == 0)):
            raise ValueError("density vanishes on a whole segment; cumulative "
                             "function would not be strictly increasing")
        self.xs = xs
        self.ws = ws
        self.left_exp = float(left_exp)
        self.right_exp = float(right_exp)
        w0 = ws[:-1]
        slope = np.diff(ws) / np.diff(xs)
        self._half_slope = 0.5 * slope
        self._two_slope = 2.0 * slope
        self._w_sq = w0 * w0
        self._sloped = np.abs(slope) > 1e-300 * np.abs(w0) + 1e-300
        self._flat_w = np.maximum(w0, 1e-300)
        # A point's segment is the number of inner knots at or below it,
        # and for inv_cdf, of the values of F at them.
        self._inner_x = xs[1:-1]
        seg = 0.5 * (ws[:-1] + ws[1:]) * np.diff(xs)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        # Shift so that F(0) = 0.
        self._cum = cum - self._window_cdf(np.array([0.0]), cum)[0]
        self._inner_f = self._cum[1:-1]
        # Each tail's edge x0, w0 * |x0| and exponent, as floats.
        self._tails = {side: (float(xs[i]), float(ws[i]) * abs(float(xs[i])), e)
                       for side, i, e in ((-1, 0, self.left_exp), (+1, -1, self.right_exp))}
        # The scalar path's copies, as floats: the window's edges and F
        # there, the inner knots and F there, and per segment what cdf
        # and inv_cdf read of it.
        self._x_lo, self._x_hi = float(xs[0]), float(xs[-1])
        self._f_lo, self._f_hi = float(self._cum[0]), float(self._cum[-1])
        self._inner_xl, self._inner_fl = self._inner_x.tolist(), self._inner_f.tolist()
        x0, c0 = xs[:-1].tolist(), self._cum[:-1].tolist()
        self._cdf_segs = list(zip(x0, w0.tolist(), c0, self._half_slope.tolist()))
        self._inv_segs = list(zip(x0, w0.tolist(), c0, self._w_sq.tolist(),
                                  self._two_slope.tolist(), self._sloped.tolist(),
                                  self._flat_w.tolist()))

    def _window_cdf(self, x: np.ndarray, cum: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._inner_x, x, side="right")
        d = x - self.xs[idx]
        return cum[idx] + self.ws[idx] * d + self._half_slope[idx] * d * d

    def _window_inv(self, t: np.ndarray) -> np.ndarray:
        cum = self._cum
        idx = np.searchsorted(self._inner_f, t, side="right")
        w0 = self.ws[idx]
        mass = t - cum[idx]
        # Solve w0*d + slope*d^2/2 = mass for d in [0, segment width].
        disc = np.sqrt(np.maximum(self._w_sq[idx] + self._two_slope[idx] * mass, 0.0))
        d = np.where(self._sloped[idx], 2.0 * mass / np.maximum(w0 + disc, 1e-300),
                     mass / self._flat_w[idx])
        return self.xs[idx] + d

    # An exponent-1 tail takes numpy's log and exp for a float too: math's
    # round apart from them (log in 130 of 50,000 ratios in [1, 4], exp
    # in 2,226 of 50,000 values).

    def _tail_mass(self, x, side: int):
        """mu between the window edge and x beyond it, >= 0."""
        x0, w0a, e = self._tails[side]
        ratio = x / x0   # >= 1 on the tail
        if e == 1.0:
            return w0a * np.log(ratio)
        return w0a * (ratio ** (1.0 - e) - 1.0) / (1.0 - e)

    def _tail_inverse(self, mass, side: int):
        """The point beyond the window edge with that much mu between them."""
        x0, w0a, e = self._tails[side]
        u = mass / w0a
        if e == 1.0:
            return x0 * np.exp(u)
        return x0 * (1.0 + (1.0 - e) * u) ** (1.0 / (1.0 - e))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return _by_piece(x, self._x_lo, self._x_hi,
                         lambda v: self._window_cdf(v, self._cum),
                         lambda v: self._f_lo - self._tail_mass(v, -1),
                         lambda v: self._f_hi + self._tail_mass(v, +1))

    def inv_cdf(self, t: np.ndarray) -> np.ndarray:
        c_lo, c_hi = self._f_lo, self._f_hi
        return _by_piece(t, c_lo, c_hi, self._window_inv,
                         lambda v: self._tail_inverse(c_lo - v, -1),
                         lambda v: self._tail_inverse(v - c_hi, +1))

    # One float: x a float runs in Python floats; x an np.float64 runs
    # the same code in numpy scalars, which warn as the array path does.

    def _cdf_float(self, x):
        if x < self._x_lo:
            return self._f_lo - self._tail_mass(x, -1)
        if x > self._x_hi:
            return self._f_hi + self._tail_mass(x, +1)
        x0, w0, c0, half_slope = self._cdf_segs[bisect_right(self._inner_xl, x)]
        d = x - x0
        return c0 + w0 * d + half_slope * d * d

    def _inv_cdf_float(self, t):
        if t < self._f_lo:
            return self._tail_inverse(self._f_lo - t, -1)
        if t > self._f_hi:
            return self._tail_inverse(t - self._f_hi, +1)
        x0, w0, c0, w_sq, two_slope, sloped, flat_w = self._inv_segs[
            bisect_right(self._inner_fl, t)]
        mass = t - c0
        if sloped:
            q = w_sq + two_slope * mass
            den = w0 + (0.0 if q <= 0.0 else math.sqrt(q))   # np.maximum(q, 0.0)
            d = 2.0 * mass / (1e-300 if den <= 1e-300 else den)
        else:
            d = mass / flat_w
        return x0 + d

    @staticmethod
    def _one(f, v: float) -> float:
        """f(v) in Python floats; for a non-finite v or result, or a
        Python pow or division that raises where numpy warns, in numpy
        scalars."""
        if -math.inf < v < math.inf:
            try:
                y = f(v)
            except ArithmeticError:
                y = math.inf
            if -math.inf < y < math.inf:
                return float(y)
        return float(f(np.float64(v)))

    def cdf_one(self, x: float) -> float:
        return self._one(self._cdf_float, x)

    def inv_cdf_one(self, t: float) -> float:
        return self._one(self._inv_cdf_float, t)


@dataclass(frozen=True)
class RadonMeasure:
    """Non-atomic Radon measure with infinite mass on both half lines.

    kind is one of "lebesgue", "power" (density |x|^-a, 0 < a < 1) or
    "custom" (tabulated density with declared power-law tails).
    """

    kind: str
    a: float = 0.0
    table: _CustomTable | None = None

    def _wrap(self, x, f):
        arr = np.asarray(x, float)
        out = f(arr)
        if np.ndim(x) == 0:
            return float(out)
        return out

    # One float takes the scalar path (see the module docstring).  On a
    # power measure zero, inf and NaN take numpy's, which gives +0.0 for
    # -0.0, and so does a pow that overflows: numpy warns where Python
    # raises.  On a custom measure every 0-d input, an int say, takes the
    # scalar path, which falls back to numpy scalars the same way
    # (_CustomTable._one).

    def cdf(self, x):
        if self.kind == "lebesgue":
            if isinstance(x, float):
                return float(x)
            return self._wrap(x, lambda v: v.copy())
        if self.kind == "power":
            a = self.a
            if isinstance(x, float) and 0.0 < abs(x) < math.inf:
                v = float(x)
                return math.copysign(abs(v) ** (1.0 - a), v) / (1.0 - a)
            return self._wrap(x, lambda v: np.sign(v) * np.abs(v) ** (1.0 - a) / (1.0 - a))
        if not isinstance(x, float):
            x = np.asarray(x, float)
            if x.ndim:
                return self.table.cdf(x)
        return self.table.cdf_one(float(x))

    def inv_cdf(self, t):
        if self.kind == "lebesgue":
            if isinstance(t, float):
                return float(t)
            return self._wrap(t, lambda v: v.copy())
        if self.kind == "power":
            a = self.a
            if isinstance(t, float) and 0.0 < abs(t) < math.inf:
                v = float(t)
                try:
                    return math.copysign(((1.0 - a) * abs(v)) ** (1.0 / (1.0 - a)), v)
                except OverflowError:
                    pass

            def inv(v):
                # In place: a table build maps 61,440 nodes at once.  Its
                # freed arrays are reused without page faults (see
                # amalgam._keep_freed_heap), yet each temporary of that
                # size still costs a pass over 480 KB, about 10-15 us on
                # a 2-vCPU Xeon: with _gk_nodes' one, the in-place code
                # saves about 8% of a tent build.
                out = np.abs(v)
                out *= 1.0 - a
                out **= 1.0 / (1.0 - a)
                out *= np.sign(v)
                return out

            return self._wrap(t, inv)
        if not isinstance(t, float):
            t = np.asarray(t, float)
            if t.ndim:
                return self.table.inv_cdf(t)
        return self.table.inv_cdf_one(float(t))

    def mass(self, interval: IntervalRC) -> float:
        return self.cdf(interval.b) - self.cdf(interval.a)

    @property
    def key(self) -> tuple:
        """The measure as a hashable value: equal keys, equal measures."""
        t = self.table
        if t is None:
            return (self.kind, self.a)
        return (self.kind, t.xs.tobytes(), t.ws.tobytes(), t.left_exp, t.right_exp)

    def __repr__(self):
        if self.kind == "power":
            return f"RadonMeasure(power, a={self.a})"
        return f"RadonMeasure({self.kind})"


def lebesgue() -> RadonMeasure:
    return RadonMeasure(kind="lebesgue")


def power_measure(a: float) -> RadonMeasure:
    """Measure |x|^-a dx; requires 0 < a < 1 for local integrability."""
    if not (0.0 < a < 1.0):
        raise ValueError(f"power exponent must lie in (0, 1), got {a}")
    return RadonMeasure(kind="power", a=float(a))


def custom_measure(density_table: Sequence[Sequence[float]],
                   left_exp: float, right_exp: float) -> RadonMeasure:
    pts = np.asarray(density_table, float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("density_table must be a list of [x, w] pairs")
    table = _CustomTable(pts[:, 0].copy(), pts[:, 1].copy(), left_exp, right_exp)
    return RadonMeasure(kind="custom", table=table)


def make_measure(spec: dict) -> RadonMeasure:
    """Build a measure from its JSON-style spec block."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("measure spec must be a dict with a 'kind' field")
    kind = spec["kind"]
    if kind == "lebesgue":
        return lebesgue()
    if kind == "power":
        if "a" not in spec:
            raise ValueError("power measure spec needs field 'a'")
        return power_measure(spec["a"])
    if kind == "custom":
        if "density_table" not in spec or "tail" not in spec:
            raise ValueError("custom measure spec needs 'density_table' and 'tail'")
        tail = spec["tail"]
        return custom_measure(spec["density_table"], tail["left_exp"], tail["right_exp"])
    raise ValueError(f"unknown measure kind {kind!r}")


def make_interval(m: RadonMeasure, a: float, b: float) -> IntervalRC:
    return IntervalRC(float(a), float(b), mass=m.cdf(b) - m.cdf(a))


def integrate(m: RadonMeasure, g, interval: IntervalRC, tol: float = 1e-8,
              singularities: Sequence[float] = None,
              breakpoints: Sequence[float] = None) -> float:
    """int_[a,b) g dmu by adaptive Gauss-Kronrod in measure coordinates.

    Singular points of g (in x) get graded-ladder treatment; breakpoints
    (kinks, jumps) just split the panel layout.  When g is a declared
    function object its own singularity/breakpoint lists are used.
    """
    if singularities is None:
        singularities = getattr(g, "singularities", ())
    if breakpoints is None:
        breakpoints = getattr(g, "breakpoints", ())
    sing_ts = [m.cdf(s) for s in singularities]
    break_ts = [m.cdf(s) for s in breakpoints]
    t_lo, t_hi = _snap(np.array([m.cdf(interval.a), m.cdf(interval.b)]), sing_ts)

    def phi(t):
        return np.asarray(g(m.inv_cdf(t)), float)

    return _integrate_t(phi, float(t_lo), float(t_hi), tol, sing_ts, break_ts)


def _interval_integrals(m: RadonMeasure, g, t_a: np.ndarray,
                        t_b: np.ndarray) -> np.ndarray:
    """int g dmu over each [t_a[i], t_b[i]) (measure coordinates) at once.

    The cell edges are every interval end plus the singular points and
    breakpoints of g (_cuts).  One Gauss-Kronrod pass covers all cells;
    cells touching a singular point are redone by the ladder, and the
    other cells whose error estimate exceeds tol times their value are
    bisected together by _bisect, in lockstep, with the bits of one cell
    at a time (stacked products, each cell's order replayed).  Each
    interval is the sum of its cells.  A cell whose ladder diverges or
    whose bisection stalls is +inf, and so is every interval containing
    it; the others stay finite.
    """
    tol = 1e-12   # per cell relative, so per interval for g >= 0
    t_a, t_b = np.asarray(t_a, float), np.asarray(t_b, float)
    sing_ts = [m.cdf(s) for s in getattr(g, "singularities", ())]
    break_ts = [m.cdf(s) for s in getattr(g, "breakpoints", ())]
    t_lo, t_hi = float(t_a.min()), float(t_b.max())
    cuts, flags = _cuts(t_lo, t_hi, sing_ts, break_ts)
    sing = [c for c, s in zip(cuts, flags) if s]
    t_a, t_b = _snap(np.array([t_a, t_b]), sing)
    edges = np.unique(np.concatenate([t_a, t_b, cuts]))
    lo, hi = edges[:-1], edges[1:]
    sing_lo, sing_hi = np.isin(lo, sing), np.isin(hi, sing)

    def phi(t):
        with np.errstate(over="ignore"):   # overflow reads as divergence
            return np.asarray(g(m.inv_cdf(t)), float)

    vals, err = gk_panels(phi, lo, hi)
    # The ladders run first, then the plain cells before the first ladder
    # that raised, so the exception raised is the first in cell order.
    plain, failed = [], None
    for i in np.flatnonzero(sing_lo | sing_hi | (err > tol * np.abs(vals))):
        if not (sing_lo[i] or sing_hi[i]):
            plain.append(i)
            continue
        try:
            vals[i] = sum(_ladder(phi, s, far, tol) for s, far in
                          _ladder_ends(lo[i], hi[i], sing_lo[i], sing_hi[i]))
        except QuadratureError:   # DivergenceError included
            vals[i] = np.inf
        except Exception as exc:
            failed = exc
            break
    for i, val in zip(plain, _bisect(phi, lo[plain], hi[plain], tol)):
        vals[i] = np.inf if isinstance(val, QuadratureError) else val
    if failed is not None:
        raise failed
    # Each interval sums its own cells rather than differencing a running
    # total: a difference of prefix sums loses the relative accuracy of a
    # small interval that lies beyond large cells.
    ja, jb = np.searchsorted(edges, t_a), np.searchsorted(edges, t_b)
    sums = np.add.reduceat(np.append(vals, 0.0), np.ravel([ja, jb], order="F"))
    return np.where(jb > ja, sums[::2], 0.0)


def partition(m: RadonMeasure, x0: float, r: float, window: IntervalRC) -> Partition:
    """Blocks of mass exactly r anchored at x0, covering the window."""
    if not (r > 0) or not np.isfinite(r):
        raise ValueError(f"partition mass r must be positive and finite, got {r}")
    t0 = m.cdf(x0)
    i_lo = int(np.floor((m.cdf(window.a) - t0) / r))
    i_hi = int(np.ceil((m.cdf(window.b) - t0) / r))
    if i_hi <= i_lo:
        i_hi = i_lo + 1
    idx = np.arange(i_lo, i_hi + 1)
    bp = m.inv_cdf(t0 + idx * r)
    return Partition(x0=float(x0), r=float(r), i_lo=i_lo, breakpoints=np.asarray(bp, float))


def growth_constant(m: RadonMeasure,
                    r_list: Sequence[float] = None,
                    t_grid: Sequence[float] = None) -> float:
    """sup over the grids of mu([t, t+r]) / mu([0, r]), both orientations.

    A finite value certifies the translated-interval growth condition on
    the scanned scales.  The default t grid is augmented with the points
    -r*k/16 (and mirrors) per scale so the symmetric worst case is hit.
    Default grids are dyadic, which keeps translation-invariant measures
    free of rounding noise in the ratios.
    """
    if r_list is None:
        r_list = 2.0 ** np.arange(-6, 7)
    if t_grid is None:
        t_grid = np.arange(-256.0, 256.25, 0.25)
    r_list = np.asarray(r_list, float)
    t_grid = np.asarray(t_grid, float)
    worst = 0.0
    frac = np.linspace(0.0, 1.0, 17)
    for r in r_list:
        ref_pos = m.cdf(r) - m.cdf(0.0)
        ref_neg = m.cdf(0.0) - m.cdf(-r)
        ts = np.concatenate([t_grid, -r * frac, r * frac - r])
        ratio_pos = (m.cdf(ts + r) - m.cdf(ts)) / ref_pos
        ratio_neg = (m.cdf(ts) - m.cdf(ts - r)) / ref_neg
        worst = max(worst, float(np.max(ratio_pos)), float(np.max(ratio_neg)))
    return worst

"""Fractional maximal operator and potential-type convolution operator.

The maximal function sup over intervals I containing x of
mu(I)^(1/beta - 1/q) |f 1_I|_q is taken in measure coordinates, where
an interval is [a, b] with t = F(x) inside it, its mass is b - a and
|f 1_I|_q^q is a difference of the LqTable's cumulative integral C.

maximal_profile() is exact over one family: every interval whose two
ends lie in a set of edges made of the points' t, the midpoints between
neighbouring points, the two ends half a spacing beyond the outer
points, and the support ends, singular points and breakpoints of f.
Since the length exponent 1/beta - 1/q is <= 0, cutting an interval
back to where C moves keeps |f 1_I|_q and cannot lower the value, so
the search runs over the edges where C moves only: for each right edge
b a prefix max over the left edges serves every point inside the
support, and points left or right of it take the point itself as one
end.  The edges of a midpoint grid contain those of the grid with half
its points, so a refined grid's family holds every coarser interval.

The pointwise maximal() scans a two-parameter candidate family instead:
an interval containing x is determined by the mass u to the left of x
and v to the right, so candidates are (total mass, left fraction)
pairs, and a coordinate golden-section polish in (log u, log v)
tightens the grid winner; its value is a lower bound of the true sup.

The potential K f(x) = int k(x - y) f(y) dmu(y) integrates in measure
coordinates with the panel layout split at x, at the support edges and
at the declared singular points of f, grading dyadically toward each
singular endpoint.  Non-decaying graded sums raise DivergenceError.
Both entry points take the cuts, the graded ladder, its tail and its
divergence test from measure.  potential() integrates one point
adaptively.  potential_profile() uses a fixed layout per point and
groups the points by layout template: x only moves the cut at t_x =
F(x), so all points outside the support share one layout, and points
inside one segment between fixed cuts share one structure with t_x as a
column.  Each group is evaluated in batches of 32 points, with nodes and
f values computed once for the panels that do not move with x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .functions import RealFunction, power_twist
from .measure import (GK_WEIGHTS, DivergenceError, EvaluationError,
                      IntervalRC, RadonMeasure, _cuts, _gk_nodes, _integrate_t,
                      _ladder_tail, _segment_runs, lebesgue, power_measure)
from .norms import Exponent, LqTable, _golden_max, _t_layout

__all__ = [
    "Kernel",
    "riesz_kernel",
    "table_kernel",
    "make_kernel",
    "MaximalQuery",
    "default_query",
    "maximal",
    "maximal_profile",
    "potential",
    "potential_profile",
    "riesz_potential",
    "riesz_via_power_measure",
    "farfield_bound_check",
]

# Points per vectorized evaluation in potential_profile.  A batch's node
# arrays hold points x panels x 15 values; 32 points keep them small.
_PROFILE_BATCH = 32
# Values per block array of maximal_profile's edge pass (256 KB).
_EDGE_BLOCK = 1 << 15


@dataclass
class Kernel:
    """Even kernel, nonincreasing on the positive half line.

    singular_exponent is the local power behaviour at 0 (e.g. gamma - 1
    for the Riesz kernel) or None for bounded kernels.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    label: str
    singular_exponent: float | None = None

    def __call__(self, u):
        return self.eval(np.asarray(u, float))


def riesz_kernel(gamma: float) -> Kernel:
    """k(u) = |u|^(gamma-1), 0 < gamma < 1."""
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"Riesz exponent gamma must lie in (0, 1), got {gamma}")

    def ev(u):
        with np.errstate(divide="ignore"):
            return np.abs(u) ** (gamma - 1.0)

    return Kernel(eval=ev, label=f"riesz({gamma})", singular_exponent=gamma - 1.0)


def table_kernel(points: Sequence[Sequence[float]]) -> Kernel:
    """Even kernel from [u, k(u)] samples on u >= 0; must be nonincreasing."""
    pts = np.asarray(points, float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("kernel table needs at least two [u, k] pairs")
    xs, ys = pts[:, 0], pts[:, 1]
    if xs[0] != 0.0:
        raise ValueError("kernel table must start at u = 0")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("kernel table abscissae must be strictly increasing")
    if np.any(np.diff(ys) > 1e-12 * max(1.0, float(np.max(np.abs(ys))))):
        raise ValueError("kernel must be nonincreasing on the positive half line")
    if np.any(ys < 0):
        raise ValueError("kernel values must be nonnegative")
    xs, ys = xs.copy(), ys.copy()

    def ev(u):
        return np.interp(np.abs(u), xs, ys, right=0.0)

    return Kernel(eval=ev, label=f"table-kernel[0,{xs[-1]}]")


def make_kernel(spec: dict) -> Kernel:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("kernel spec must be a dict with a 'kind' field")
    if spec["kind"] == "riesz":
        return riesz_kernel(spec["gamma"])
    if spec["kind"] == "table":
        if not spec.get("even", True):
            raise ValueError("only even kernels are supported")
        return table_kernel(spec["points"])
    raise ValueError(f"unknown kernel kind {spec['kind']!r}")


@dataclass(frozen=True)
class MaximalQuery:
    """Candidate family for the maximal operator at a point."""

    x: float
    mass_grid: np.ndarray      # total masses u + v of candidate intervals
    split_count: int = 17      # left-fraction resolution per total mass

    def fractions(self) -> np.ndarray:
        n = self.split_count
        return (np.arange(n) + 1.0) / (n + 1.0)


def default_mass_grid(m: RadonMeasure, f: RealFunction, xs,
                      count: int = 64) -> np.ndarray:
    """Masses from tiny (well below the support mass) to well past the
    measure distance between the query points and the support."""
    t_supp = (m.cdf(f.support.a), m.cdf(f.support.b))
    txs = np.atleast_1d(np.asarray(m.cdf(xs), float))
    ms = max(t_supp[1] - t_supp[0], 1e-12)
    d = float(np.max(np.maximum(np.abs(txs - t_supp[0]), np.abs(txs - t_supp[1]))))
    return np.geomspace(ms / 256.0, 4.0 * (ms + d), count)


def default_query(m: RadonMeasure, f: RealFunction, x: float,
                  count: int = 64, split_count: int = 17) -> MaximalQuery:
    return MaximalQuery(x=float(x), mass_grid=default_mass_grid(m, f, x, count),
                        split_count=split_count)


def _candidate_value(table: LqTable, t_x, u, v, expo: float, rq: float):
    """Value of the candidate interval with mass u left / v right of x."""
    mass = u + v
    lq = table.mass_between(t_x - u, t_x + v) ** rq
    return mass ** expo * lq


def maximal(m: RadonMeasure, f: RealFunction, q, beta, x: float,
            query: MaximalQuery | None = None, refine: bool = True,
            table: LqTable | None = None) -> float:
    """Fractional maximal function sup_{I containing x} mu(I)^(1/beta-1/q) |f 1_I|_q.

    A lower bound by construction, up to the qth-mean table error
    (about 1e-8 relative on very short intervals); refine=True polishes
    the grid argmax coordinate-wise in (log u, log v), for at most 3
    rounds over both coordinates.  Each step scans 96 points in one
    mass_between call, then golden-sections around the best.  The powers
    are taken point by point as numpy scalar (libm) powers, because
    array ** can round apart in the last place, so every value is the
    one the point would get on its own.  A round in which neither
    coordinate improves leaves the state as it found it, and the next
    round would repeat it exactly: refinement stops there.
    """
    q, beta = Exponent.of(q), Exponent.of(beta)
    if q.recip < beta.recip:
        raise ValueError(f"maximal operator needs q <= beta "
                         f"(got q={q.value:g}, beta={beta.value:g})")
    if query is None:
        query = default_query(m, f, x)
    t_x = m.cdf(x)
    expo = beta.recip - q.recip
    if q.is_inf:
        return _maximal_sup_kind(m, f, beta, t_x, query)
    if table is None:
        table = LqTable(m, f, q)
    rq = 1.0 / q.value
    fracs = query.fractions()
    M = query.mass_grid[:, None]
    u = M * fracs[None, :]
    v = M - u
    vals = _candidate_value(table, t_x, u, v, expo, rq)
    j = int(np.argmax(vals))
    best = float(vals.flat[j])
    if not refine or best == 0.0:
        return best
    u0, v0 = float(u.flat[j]), float(v.flat[j])
    # Below this size the table's interpolated masses are cancellation
    # noise, which would let averages exceed their true sup.
    span = float(table.t_edges[-1] - table.t_edges[0])
    size_floor = (abs(t_x) + span) * 1e-9
    edges, cum = table.t_edges, table.cum

    def scan(uu, vv):
        # Candidate values along arrays of (u, v), powers element by element.
        d = table.mass_between(t_x - uu, t_x + vv)
        return np.array([mm ** expo * dd ** rq for mm, dd in zip(uu + vv, d)])

    def point(uu, vv):
        c0, c1 = np.interp(np.array((t_x - uu, t_x + vv)), edges, cum)
        return float((uu + vv) ** expo * max(c1 - c0, 0.0) ** rq)

    for _ in range(3):
        moved = False
        for which in (0, 1):
            cur = (u0, v0)[which]
            lo = np.log(max(cur * 1e-8, size_floor))
            hi = np.log(max(cur * 16.0, size_floor * 32.0))
            if which == 0:
                w_best, f_best = _scan_then_golden(
                    lambda ws: scan(np.exp(ws), v0),
                    lambda w: point(np.exp(w), v0), lo, hi)
            else:
                w_best, f_best = _scan_then_golden(
                    lambda ws: scan(u0, np.exp(ws)),
                    lambda w: point(u0, np.exp(w)), lo, hi)
            if f_best > best:
                best, moved = f_best, True
                if which == 0:
                    u0 = float(np.exp(w_best))
                else:
                    v0 = float(np.exp(w_best))
        if not moved:
            break
    return best


def _scan_then_golden(scan_fn, fn, lo, hi, scan: int = 96):
    # Dense scan first: the objective can sit on a flat zero plateau
    # (candidate interval missing the support entirely), where golden
    # section alone stalls.  scan_fn values the whole scan, fn one point.
    ws = np.linspace(lo, hi, scan)
    vals = scan_fn(ws)
    j = int(np.argmax(vals))
    a = ws[max(j - 1, 0)]
    b = ws[min(j + 1, scan - 1)]
    w, fw = _golden_max(fn, a, b)
    if fw >= vals[j]:
        return w, fw
    return ws[j], float(vals[j])


def _maximal_sup_kind(m: RadonMeasure, f: RealFunction, beta: Exponent,
                      t_x: float, query: MaximalQuery) -> float:
    # q = inf: candidate value is mu(I)^(1/beta) * sup_I |f| (sampled sup),
    # every (mass, fraction) candidate's samples in one block.
    masses = np.asarray(query.mass_grid, float)[:, None]
    fracs = query.fractions()
    samples = (np.arange(257) + 0.5) / 257.0
    lo, hi = t_x - fracs * masses, t_x + (1.0 - fracs) * masses
    ts = lo[..., None] + (hi - lo)[..., None] * samples
    with np.errstate(divide="ignore", over="ignore"):
        s = np.max(np.abs(np.asarray(f(m.inv_cdf(ts)), float)), axis=-1)
    coef = np.array([M ** beta.recip for M in query.mass_grid])
    # fmax skips a NaN candidate, as max(best, candidate) does.
    return float(np.fmax.reduce(coef[:, None] * s, axis=None, initial=0.0))


def _profile_edges(m: RadonMeasure, f: RealFunction, table: LqTable,
                   ts: np.ndarray) -> np.ndarray:
    """maximal_profile's edge family in measure coordinates, ascending.

    ts are the points' F(x), finite, ascending and distinct.  The edges
    are the points, the midpoints between neighbours, the two ends half a
    spacing beyond the outer points, and F of the support ends, singular
    points and breakpoints of f.  An edge within 1e-9 (|t| + span) of the
    one below it is dropped: over a shorter length the length power
    would multiply the rounding noise of the table's differences.
    """
    t_lo, t_hi, sing, brk = _t_layout(m, f)
    parts = [ts, [t_lo, t_hi, *sing, *brk]]
    if ts.size > 1:
        parts += [(ts[:-1] + ts[1:]) / 2.0,
                  [1.5 * ts[0] - 0.5 * ts[1], 1.5 * ts[-1] - 0.5 * ts[-2]]]
    edges = np.unique(np.concatenate(parts))
    edges = edges[np.isfinite(edges)]
    span = float(table.t_edges[-1] - table.t_edges[0])
    keep = np.ones(edges.size, bool)
    keep[1:] = np.diff(edges) > 1e-9 * (np.abs(edges[1:]) + span)
    return edges[keep]


def _outer_sups(s: np.ndarray, ends: np.ndarray, pts: np.ndarray,
                k: float) -> np.ndarray:
    """max over i of s[i] |pts - ends[i]|^k at every point, in blocks of
    rows of at most _EDGE_BLOCK values."""
    out = np.zeros(pts.size)
    rows = max(1, _EDGE_BLOCK // max(pts.size, 1))
    for i in range(0, s.size, rows):
        d = np.abs(pts - ends[i:i + rows, None])
        d **= k
        d *= s[i:i + rows, None]
        np.maximum(out, d.max(axis=0), out=out)
    return out


def _edge_sups(E: np.ndarray, C: np.ndarray, k: float) -> np.ndarray:
    """S[p] = max of (C[b] - C[a]) (E[b] - E[a])^k over edges a <= p <= b,
    a < b, for every edge p; E ascending, C nondecreasing, k <= 0.

    C is flat up to edge i0 and from edge i1 on.  A shorter interval with
    the same C-difference is worth at least as much, so an interval may
    be cut back to [i0, i1] wherever the cut still contains p: a point
    inside takes a, b in [i0, i1], a point left of i0 takes a = p and a
    point right of i1 takes b = p.  The inside points take, for each
    right edge b, the prefix max over a of that row; a block of right
    edges is one (rows, edges) array.
    """
    S = np.zeros(E.size)
    i0 = int(np.searchsorted(C, C[0], side="right")) - 1
    i1 = int(np.searchsorted(C, C[-1], side="left"))
    if i1 <= i0:
        return S
    S[:i0] = _outer_sups(C[i0 + 1:i1 + 1] - C[i0], E[i0 + 1:i1 + 1], E[:i0], k)
    S[i1 + 1:] = _outer_sups(C[i1] - C[i0:i1], E[i0:i1], E[i1 + 1:], k)
    rows = max(1, min(i1 - i0, _EDGE_BLOCK // (i1 + 1 - i0)))
    below = np.tri(rows, rows, -1, dtype=bool)   # a < b in the last columns
    upto = np.tri(rows, rows, 0, dtype=bool)     # p <= b in the last columns
    for b0 in range(i0 + 1, i1 + 1, rows):
        b1 = min(b0 + rows, i1 + 1)
        n = b1 - b0
        with np.errstate(divide="ignore", invalid="ignore"):
            d = E[b0:b1, None] - E[i0:b1]
            d **= k
            d *= C[b0:b1, None] - C[i0:b1]
        tail = d[:, b0 - i0:]
        tail[~below[:n, :n]] = 0.0
        np.maximum.accumulate(d, axis=1, out=d)
        tail[~upto[:n, :n]] = 0.0
        np.maximum(S[i0:b1], d.max(axis=0), out=S[i0:b1])
    return S


def maximal_profile(m: RadonMeasure, f: RealFunction, q, beta,
                    xs: np.ndarray, *, table: LqTable | None = None) -> np.ndarray:
    """Fractional maximal function over many points, exact over an edge family.

    The value at x is the sup of mu(I)^(1/beta - 1/q) |f 1_I|_q over the
    intervals I = [a, b] with F(a) <= F(x) <= F(b) whose ends lie in one
    set of edges in measure coordinates (_profile_edges): the points'
    t = F(x), the midpoints between neighbouring points, the two ends half
    a spacing beyond the outer points, and the support ends, singular
    points and breakpoints of f.  A point on an edge lies inside the
    interval.  The edges of a midpoint grid contain those of the grid
    with half its points, so the refined family holds every coarser
    interval.

    With C the table's cumulative integral at the edges, an interval is
    worth (C[b] - C[a])^(1/q) (b - a)^(1/beta - 1/q), and the exponent of
    the length is <= 0: cutting an interval back to where C moves keeps
    its integral and cannot lower its value (_edge_sups).  The sup is
    compared as (C[b] - C[a]) (b - a)^(q/beta - 1), whose 1/q power it
    is.  NaN points give NaN, infinite points the limit over unbounded
    intervals, and a table whose total is not finite gives NaN
    everywhere.
    """
    q, beta = Exponent.of(q), Exponent.of(beta)
    if q.is_inf:
        raise ValueError("maximal_profile supports finite q only")
    if q.recip < beta.recip:
        raise ValueError("maximal operator needs q <= beta")
    xs = np.asarray(xs, float)
    if table is None:
        table = LqTable(m, f, q)
    t_xs = np.asarray(m.cdf(xs), float).ravel()
    out = np.full(t_xs.shape, np.nan)
    finite = np.isfinite(t_xs)
    if not np.isfinite(table.cum[-1]):
        return out.reshape(xs.shape)
    expo = beta.recip - q.recip
    k = 0.0 if expo == 0.0 else q.value * beta.recip - 1.0
    if finite.any():
        ts = np.unique(t_xs[finite])
        E = _profile_edges(m, f, table, ts)
        C = np.maximum.accumulate(np.interp(E, table.t_edges, table.cum))
        S = _edge_sups(E, C, k)
        out[finite] = S[np.searchsorted(E, t_xs[finite], side="right") - 1]
    # An unbounded interval holds all of f: the total times inf^k.
    out[np.isinf(t_xs)] = (table.cum[-1] - table.cum[0]) * np.inf ** k
    if q.value != 1.0:
        out **= q.recip
    return out.reshape(xs.shape)


def potential(m: RadonMeasure, f: RealFunction, k: Kernel, x: float,
              tol: float = 1e-8) -> float:
    """K f(x) = int k(x - y) f(y) dmu(y) over the support of f."""
    if x in f.singularities:
        raise ValueError(f"potential evaluation at a singular point of f: x={x}")
    t_lo, t_hi, sing, brk = _t_layout(m, f)
    # t_x is a singular cut for a singular kernel and the |x - y| kink of
    # a bounded one; _cuts drops it when it lies outside the support.
    (sing if k.singular_exponent is not None else brk).append(m.cdf(x))

    def phi(t):
        y = m.inv_cdf(t)
        with np.errstate(divide="ignore", over="ignore"):
            return np.asarray(k(x - y), float) * np.asarray(f(y), float)

    return _integrate_t(phi, t_lo, t_hi, tol, sing, brk)


def _profile_groups(t: np.ndarray, t_lo: float, t_hi: float, sing_f, brk_f,
                    singular: bool, base_panels: int):
    """Split points, given by t = F(x), into groups sharing a panel layout.

    The cuts that do not depend on x are the support edges and the
    singular points and breakpoints of f inside the support.  t_x adds a
    cut when it lies strictly between two of them, and makes the cut it
    lands on singular for a singular kernel.  Yields (rows, cuts, sing,
    bases): the rows of t in the group, the cuts in order with None
    standing for t_x, the singular flags of the cuts, and the panel count
    of each segment (0 for graded ones).
    """
    cuts0, flags0 = _cuts(t_lo, t_hi, sing_f, brk_f)
    pos = np.searchsorted(cuts0, t)           # cuts0[pos - 1] < t <= cuts0[pos]
    on_cut = np.asarray(cuts0)[np.minimum(pos, len(cuts0) - 1)] == t
    inside = (t_lo < t) & (t < t_hi) & ~on_cut
    groups = [((t < t_lo) | (t > t_hi) | (on_cut & (not singular)),
               cuts0, flags0)]
    if singular:
        for j in np.unique(pos[on_cut]):
            groups.append((on_cut & (pos == j), cuts0,
                           [*flags0[:j], True, *flags0[j + 1:]]))
    for j in np.unique(pos[inside]):
        groups.append((inside & (pos == j), [*cuts0[:j], None, *cuts0[j:]],
                       [*flags0[:j], singular, *flags0[j:]]))
    span = t_hi - t_lo
    for mask, cuts, sing in groups:
        rows = np.flatnonzero(mask)
        if rows.size == 0:
            continue
        ends = [t[rows] if c is None else c for c in cuts]
        counts = np.zeros((rows.size, len(cuts) - 1), int)
        for i, (a, b) in enumerate(zip(ends[:-1], ends[1:])):
            if not (sing[i] or sing[i + 1]):
                counts[:, i] = np.maximum(
                    6, np.ceil(base_panels * (b - a) / span).astype(int))
        keys, which = np.unique(counts, axis=0, return_inverse=True)
        which = which.ravel()
        for u, bases in enumerate(keys):
            yield rows[which == u], cuts, sing, bases


def _profile_group(m: RadonMeasure, f: RealFunction, k: Kernel,
                   xs: np.ndarray, ts: np.ndarray, cuts, sing, bases):
    """K f at the points xs (with ts = F(xs)) of one layout group.

    Returns (values, error), where error is (row, exception) for the
    first row whose integrand gives NaN or whose graded sums do not
    decay, and None when every row is fine.
    """
    def runs(seg_runs):
        """(nodes, half widths, y, f(y), graded) of each panel run."""
        out = []
        for lo, hi, graded in seg_runs:
            nodes, half = _gk_nodes(lo, hi)
            y = m.inv_cdf(nodes)
            with np.errstate(divide="ignore", over="ignore"):
                out.append((nodes, half, y, np.asarray(f(y), float), graded))
        return out

    segs = list(zip(cuts[:-1], cuts[1:], sing[:-1], sing[1:], bases))
    # Segments whose ends do not move with x: nodes, y and f(y) once.
    shared = {i: runs(_segment_runs(*seg)) for i, seg in enumerate(segs)
              if seg[0] is not None and seg[1] is not None}
    out = np.empty(xs.size)
    for s in range(0, xs.size, _PROFILE_BATCH):
        x = xs[s:s + _PROFILE_BATCH, None, None]
        tb = ts[s:s + _PROFILE_BATCH]
        n = x.shape[0]
        parts = []
        for i, (a, b, sa, sb, base) in enumerate(segs):
            parts += shared[i] if i in shared else runs(_segment_runs(
                tb if a is None else a, tb if b is None else b, sa, sb, base))
        with np.errstate(divide="ignore", over="ignore"):
            vals = np.concatenate([np.asarray(k(x - y), float) * fy
                                   for _, _, y, fy, _ in parts], axis=1)
        half = np.concatenate([np.broadcast_to(p[1], (n, p[1].shape[-1]))
                               for p in parts], axis=1)
        errors = []
        nan_rows = np.flatnonzero(np.isnan(vals).any(axis=(1, 2)))
        if nan_rows.size:
            r = nan_rows[0]
            nodes = np.concatenate([np.broadcast_to(p[0], (n,) + p[0].shape[-2:])
                                    for p in parts], axis=1)[r]
            bad = nodes.ravel()[np.isnan(vals[r]).ravel()][0]
            errors.append((r, EvaluationError(
                f"integrand returned NaN near t={bad!r}", location=float(bad))))
        # Same arithmetic as gk_panels: one (panels, 15) product per point.
        with np.errstate(invalid="ignore"):
            k15 = half * (vals @ GK_WEIGHTS)
        total = np.where(np.isfinite(k15), k15, 0.0).sum(axis=1)
        start = 0
        for nodes, _, _, _, graded in parts:
            stop = start + nodes.shape[-2]
            if graded:
                p = k15[:, start:stop]
                rem, diverging = _ladder_tail(p, 1e-12)
                total = total + rem
                if diverging.any():
                    r = int(np.argmax(diverging))
                    errors.append((r, DivergenceError(partial_sums=p[r].copy())))
            start = stop
        out[s:s + n] = total
        if errors:
            r, exc = min(errors, key=lambda e: e[0])
            return out, (s + r, exc)
    return out, None


def potential_profile(m: RadonMeasure, f: RealFunction, k: Kernel,
                      xs: np.ndarray, base_panels: int = 24) -> np.ndarray:
    """K f at many points with the fixed graded panel scheme.

    Each point's panel layout splits the support at the singular points
    and breakpoints of f and at t_x = F(x) when it lies inside; segments
    get max(6, ceil(base_panels * length / support length)) equal panels,
    or dyadic ladders with a geometric tail toward singular ends.  The
    points are grouped by layout (_profile_groups) and each group is
    integrated in batches of _PROFILE_BATCH points, with nodes and f
    values shared by the panels that do not move with x.  Points on a
    singular point of f give NaN; non-decaying ladder sums raise
    DivergenceError and NaN integrands EvaluationError, for the first
    such point in xs.
    """
    xs = np.asarray(xs, float)
    t_lo, t_hi, sing_f, brk_f = _t_layout(m, f)
    out = np.full(xs.shape, np.nan)
    valid = np.flatnonzero(~np.isin(xs, f.singularities))
    if t_hi <= t_lo:
        out[valid] = 0.0
        return out
    t = np.asarray(m.cdf(xs[valid]), float)
    # Array and scalar powers may round apart in the last place, and t_x
    # sets panel edges: near the support take it point by point, as
    # potential() does.
    pad = 1e-9 * max(abs(t_lo), abs(t_hi))
    near = np.flatnonzero((t >= t_lo - pad) & (t <= t_hi + pad))
    t[near] = [m.cdf(x) for x in xs[valid[near]]]
    errors = []
    for rows, cuts, sing, bases in _profile_groups(
            t, t_lo, t_hi, sing_f, brk_f, k.singular_exponent is not None,
            base_panels):
        idx = valid[rows]
        vals, err = _profile_group(m, f, k, xs[idx], t[rows], cuts, sing, bases)
        out[idx] = vals
        if err is not None:
            errors.append((idx[err[0]], err[1]))
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return out


def riesz_potential(f: RealFunction, gamma: float, x: float,
                    tol: float = 1e-8) -> float:
    """I_gamma f(x) = int |x-y|^(gamma-1) f(y) dy (Lebesgue route)."""
    return potential(lebesgue(), f, riesz_kernel(gamma), x, tol=tol)


def riesz_via_power_measure(f: RealFunction, gamma: float, a: float, x: float,
                            tol: float = 1e-8) -> float:
    """Same Riesz potential through the measure |y|^-a dy.

    Writing dy = |y|^a dmu_a(y) moves the weight onto the data:
    I_gamma f = K(|y|^a f) with K the potential over mu_a.  Both routes
    must agree; this one exercises the singular-measure quadrature.
    """
    m = power_measure(a)
    twist = power_twist(f, a)
    return potential(m, twist, riesz_kernel(gamma), x, tol=tol)


def farfield_bound_check(m: RadonMeasure, f: RealFunction, q, beta,
                         y1: float, x1: float, x2: float, y2: float,
                         x: float, k: Kernel, mass_tol: float = 1e-6, *,
                         table: LqTable | None = None) -> tuple[float, float]:
    """Far-field domination data: (K f(x), mass-ratio^(1/eta) * maximal).

    Geometry: y1 < x1 < x2 < y2 with the flanking masses equal and at
    least the core mass; f supported in [x1, x2]; x outside [y1, y2].
    table is f's LqTable for q, handed to maximal (built there if None).
    """
    if not (y1 < x1 < x2 < y2):
        raise ValueError("need y1 < x1 < x2 < y2")
    left = m.mass(IntervalRC(y1, x1))
    right = m.mass(IntervalRC(x2, y2))
    core = m.mass(IntervalRC(x1, x2))
    scale = max(left, right, core)
    if abs(left - right) > mass_tol * scale:
        raise ValueError(f"flanking masses differ: {left} vs {right}")
    if min(left, right) < core * (1.0 - 1e-9):
        raise ValueError("flanking masses must be at least the core mass")
    if not (f.support.a >= x1 - 1e-12 and f.support.b <= x2 + 1e-12):
        raise ValueError("f must be supported inside [x1, x2]")
    if y1 <= x <= y2:
        raise ValueError("x must lie outside [y1, y2]")
    q, beta = Exponent.of(q), Exponent.of(beta)
    inv_eta = 1.0 - beta.recip
    lhs = potential(m, f, k, x)
    mval = maximal(m, f, q, beta, x, table=table)
    if x > y2:
        ratio = m.mass(IntervalRC(x2, x)) / m.mass(IntervalRC(0.0, x - x2))
    else:
        ratio = m.mass(IntervalRC(x, x1)) / m.mass(IntervalRC(x - x1, 0.0))
    return lhs, ratio ** inv_eta * mval

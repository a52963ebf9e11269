"""Fractional maximal operator and potential-type convolution operator.

The maximal operator is scanned over a two-parameter candidate family in
measure coordinates: an interval containing x is determined by the mass
u to the left of x and v to the right, so candidates are (total mass,
left fraction) pairs.  Every reported value is a certified lower bound
of the true supremum; a coordinate golden-section polish in (log u,
log v) tightens the grid winner.  maximal_profile() shares the family
over many points and evaluates it in reach-limited batches: per total
mass, one block of every left fraction over the sorted points whose
candidates can meet the support, since the others score exactly 0.

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
    the grid argmax coordinate-wise in (log u, log v).
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

    def g(uu, vv):
        return float(_candidate_value(table, t_x, uu, vv, expo, rq))

    for _ in range(3):
        for which in (0, 1):
            cur = (u0, v0)[which]
            lo = np.log(max(cur * 1e-8, size_floor))
            hi = np.log(max(cur * 16.0, size_floor * 32.0))
            fn = (lambda w: g(np.exp(w), v0)) if which == 0 else \
                 (lambda w: g(u0, np.exp(w)))
            w_best, f_best = _scan_then_golden(fn, lo, hi)
            if f_best > best:
                best = f_best
                if which == 0:
                    u0 = float(np.exp(w_best))
                else:
                    v0 = float(np.exp(w_best))
    return best


def _scan_then_golden(fn, lo, hi, scan: int = 96):
    # Dense scan first: the objective can sit on a flat zero plateau
    # (candidate interval missing the support entirely), where golden
    # section alone stalls.
    ws = np.linspace(lo, hi, scan)
    vals = np.array([fn(w) for w in ws])
    j = int(np.argmax(vals))
    a = ws[max(j - 1, 0)]
    b = ws[min(j + 1, scan - 1)]
    w, fw = _golden_max(fn, a, b)
    if fw >= vals[j]:
        return w, fw
    return ws[j], float(vals[j])


def _maximal_sup_kind(m: RadonMeasure, f: RealFunction, beta: Exponent,
                      t_x: float, query: MaximalQuery) -> float:
    # q = inf: candidate value is mu(I)^(1/beta) * sup_I |f| (sampled sup).
    best = 0.0
    fracs = query.fractions()
    samples = (np.arange(257) + 0.5) / 257.0
    for M in query.mass_grid:
        for fr in fracs:
            lo, hi = t_x - fr * M, t_x + (1.0 - fr) * M
            ts = lo + (hi - lo) * samples
            with np.errstate(divide="ignore", over="ignore"):
                s = float(np.max(np.abs(np.asarray(f(m.inv_cdf(ts)), float))))
            best = max(best, M ** beta.recip * s)
    return best


def maximal_profile(m: RadonMeasure, f: RealFunction, q, beta,
                    xs: np.ndarray, mass_grid: np.ndarray | None = None,
                    split_count: int = 17,
                    table: LqTable | None = None) -> np.ndarray:
    """Vectorized maximal-function lower bound over many points.

    Shares one candidate family across all points so that level sets of
    the output are consistent under refinement: for each mass M of the
    grid, split_count intervals with u = M * fraction left of x and
    v = M - u right of it, valued M^(1/beta - 1/q) |f 1_I|_q.  The
    points are sorted once.  For each mass, the run of points where some
    split meets the table's range is evaluated, all splits in one
    (split_count, points) block.  The points outside the run would score
    exactly 0, so the values are those of evaluating every candidate at
    every point.
    """
    q, beta = Exponent.of(q), Exponent.of(beta)
    if q.is_inf:
        raise ValueError("maximal_profile supports finite q only")
    if q.recip < beta.recip:
        raise ValueError("maximal operator needs q <= beta")
    xs = np.asarray(xs, float)
    if mass_grid is None:
        mass_grid = default_mass_grid(m, f, xs)
    if table is None:
        table = LqTable(m, f, q)
    t_xs = np.asarray(m.cdf(xs), float)
    expo = beta.recip - q.recip
    rq = 1.0 / q.value
    fracs = (np.arange(split_count) + 1.0) / (split_count + 1.0)
    if t_xs.size == 0 or fracs.size == 0:
        return np.zeros_like(t_xs)
    order = np.argsort(t_xs, axis=None, kind="stable")
    ts = t_xs.ravel()[order]                  # NaNs sort last
    best = np.zeros_like(ts)
    e0, e1 = table.t_edges[[0, -1]]
    # Left of e0 the interpolated cumulative integral is exactly cum[0],
    # right of e1 exactly cum[-1], so a candidate wholly on one side has
    # d = 0 and value 0: the points beyond reach of every split of a mass
    # form the two tails of ts and are skipped.  A NaN point, an infinite
    # table total (inf - inf) or coef (inf * 0) gives NaN instead, so
    # those evaluate every point.
    can_skip = np.isfinite(table.cum[-1]) and not np.isnan(ts[-1])
    for M in np.asarray(mass_grid, float):
        coef = M ** expo
        u = (fracs * M)[:, None]
        v = M - u
        lo, hi = 0, ts.size
        if can_skip and np.isfinite(coef) and 0.0 < M < np.inf:
            # No double lies strictly between a real number and its
            # rounding, so t < fl(e0 - v_max) gives t + v <= e0 exactly,
            # and t > fl(e1 + u_max) gives t - u >= e1.
            lo = np.searchsorted(ts, e0 - v.max(), side="left")
            hi = np.searchsorted(ts, e1 + u.max(), side="right")
        if lo < hi:
            t = ts[lo:hi]
            vals = table.mass_between(t - u, t + v)
            vals **= rq                       # coef * d ** rq, in place
            vals *= coef
            np.maximum(best[lo:hi], vals.max(axis=0), out=best[lo:hi])
    out = np.empty(ts.size)
    out[order] = best
    return out.reshape(t_xs.shape)


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
        k15 = np.where(np.isfinite(k15), k15, 0.0)
        total = k15.sum(axis=1)
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
                         x: float, k: Kernel,
                         mass_tol: float = 1e-6) -> tuple[float, float]:
    """Far-field domination data: (K f(x), mass-ratio^(1/eta) * maximal).

    Geometry: y1 < x1 < x2 < y2 with the flanking masses equal and at
    least the core mass; f supported in [x1, x2]; x outside [y1, y2].
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
    mval = maximal(m, f, q, beta, x)
    if x > y2:
        ratio = m.mass(IntervalRC(x2, x)) / m.mass(IntervalRC(0.0, x - x2))
    else:
        ratio = m.mass(IntervalRC(x, x1)) / m.mass(IntervalRC(x - x1, 0.0))
    return lhs, ratio ** inv_eta * mval

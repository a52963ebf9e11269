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
the search runs over the edges where C moves only.  The points inside
the support take the pairs of the tiles of 32 x 32 edges that a bound
cannot rule out, which gives the bits of a pass over every pair, and
points left or right of it take the point itself as one end.  An
outer point's best far end moves monotonically with the point (the
length factor's log-derivative is monotone in the far end), so the
outer points are a divide and conquer over the points, O(n log n)
values instead of points x edges.  The edges of a midpoint grid contain
those of the grid with half its points, so a refined grid's family
holds every coarser interval.

The pointwise maximal() is exact over the table's interpolated C: with
one end fixed, an interval's value has no interior maximum on a linear
piece of C, so both ends lie on the table's edges or at t_x.  A best
pair over a coarse subset of those ends starts alternating line maxima,
one vector pass over the edges per end, until a round brings no gain.

The potential K f(x) = int k(x - y) f(y) dmu(y) integrates in measure
coordinates with the panel layout split at x, at the support edges and
at the declared singular points of f, grading dyadically toward each
singular endpoint.  Non-decaying graded sums raise DivergenceError.
Both entry points take the cuts, the graded ladder, its tail and its
divergence test from measure.  potential() integrates one point
adaptively and is the reference.  potential_profile() uses a fixed
layout per point and groups the points by layout template: x only moves
the cut at t_x = F(x), so all points outside the support share one
layout, and points inside one segment between fixed cuts share one
structure with t_x as a column.  Each group is evaluated in batches of
32 points, with nodes and f values computed once for the panels that do
not move with x.  The outside group's far points skip the batches.  For
the Riesz kernel, a point more than twice the support's half width w
from its centre c takes one binomial expansion of |x - y|^(gamma-1)
about c, the far field of the fast multipole method (Greengard &
Rokhlin, J. Comput. Phys. 1987), which in 1-D with one bounded support
needs no tree: the moments of f about c are summed once on the group's
own panels, and the truncation has a certified bound.  A bounded kernel
is exactly 0 at a point farther than its reach from the support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .functions import RealFunction
from .measure import (GK_WEIGHTS, DivergenceError, EvaluationError,
                      IntervalRC, RadonMeasure, _cuts, _gk_nodes, _integrate_t,
                      _ladder_tail, _segment_runs)
from .norms import Exponent, LqTable, _t_layout, lq_norm

__all__ = [
    "Kernel",
    "riesz_kernel",
    "table_kernel",
    "make_kernel",
    "maximal",
    "maximal_profile",
    "potential",
    "potential_profile",
    "farfield_bound_check",
]

# Points per vectorized evaluation in potential_profile.  A batch's node
# arrays hold points x panels x 15 values; 32 points keep them small.
_PROFILE_BATCH = 32
# Relative truncation target of potential_profile's far-field series; at
# rho < 1/2 it is met within _FAR_TERMS terms (_far_bound(1/2, 56) = 2^-56).
_FAR_TOL = 2.0 ** -56
_FAR_TERMS = 57
# Values per chunk of tiles of maximal_profile's inside-support pass
# (256 KB), and edges per side of a tile.
_EDGE_BLOCK = 1 << 15
_EDGE_TILE = 32
# Every _COARSE_STRIDE-th table edge is an end of pointwise maximal's
# coarse start pairs.
_COARSE_STRIDE = 32
# farfield_bound_check's flanking masses may differ by this share of the
# largest of the three masses.
FLANK_MASS_TOL = 1e-6


@dataclass
class Kernel:
    """Even kernel, nonincreasing on the positive half line.

    singular_exponent is gamma - 1 for the Riesz kernel |u|^(gamma - 1),
    the one singular kernel, and None for bounded kernels.  k(u) is 0 for
    |u| > reach.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    label: str
    singular_exponent: float | None = None
    reach: float = np.inf

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

    return Kernel(eval=ev, label=f"table-kernel[0,{xs[-1]}]", reach=float(xs[-1]))


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


def _pair_values(a, ca, b, cb, k: float, off=0.0):
    """((cb - ca) + off) (b - a)^k, broadcast; where b <= a, (b - a)^k
    is inf^k, which is 0, or 1 at k = 0."""
    d = b - a
    return ((cb - ca) + off) * np.where(d > 0.0, d, np.inf) ** k


def _table_sup(E: np.ndarray, C: np.ndarray, t_x: float, marks,
               k: float) -> float:
    """max of (C(b) - C(a)) (b - a)^k over the ends a <= t_x <= b in the
    table edges E and t_x, C interpolated; t_x finite, C nondecreasing.

    t_x within 1e-9 (|t_x| + span) of an edge is that edge.  Every left
    end lies at or below every right end, so the search takes the best
    pair over a coarse subset of the ends (every _COARSE_STRIDE-th edge,
    the marks, and t_x with its two neighbours), then alternates line
    maxima, the best right end for the current left one and the best
    left end for that, until a round brings no gain.
    """
    coarse = np.isin(E, marks)
    coarse[::_COARSE_STRIDE] = True
    p = int(np.searchsorted(E, t_x))            # E[p - 1] < t_x <= E[p]
    near = [i for i in (p - 1, p) if 0 <= i < E.size
            and abs(E[i] - t_x) <= 1e-9 * (abs(t_x) + E[-1] - E[0])]
    off = 0.0
    if near:
        p = near[-1]
    else:
        # t_x splits the cell [E[i], E[j]].  An interpolated C(t_x) is an
        # ulp of C off, which is much of a piece as short as 1e-7 of the
        # span.  So t_x takes the C of its nearer edge E[n], and a pair
        # that ends at t_x adds off = slope * (t_x - E[n]), one that
        # starts there subtracts it: the short in-cell piece is exactly
        # slope * length.
        i, j = max(p - 1, 0), min(p, E.size - 1)
        n = i if t_x - E[i] < E[j] - t_x else j
        if j > i:
            off = (C[j] - C[i]) / (E[j] - E[i]) * (t_x - E[n])
        E, C = np.insert(E, p, t_x), np.insert(C, p, C[n])
        coarse = np.insert(coarse, p, True)
    coarse[max(p - 1, 0):p + 2] = True
    L, CL, R, CR = E[:p + 1], C[:p + 1], E[p:], C[p:]

    def row(a):                      # every right end for the left end L[a]
        v = _pair_values(L[a], CL[a], R, CR, k, -off if a == p else 0.0)
        if off and a < p:
            v[0] = (CR[0] - CL[a] + off) * (t_x - L[a]) ** k
        return v

    def col(b):                      # every left end for the right end R[b]
        v = _pair_values(L, CL, R[b], CR[b], k, off if b == 0 else 0.0)
        if off and b > 0:
            v[p] = (CR[b] - CL[p] - off) * (R[b] - t_x) ** k
        return v

    li, ri = np.flatnonzero(coarse[:p + 1]), np.flatnonzero(coarse[p:])
    offs = np.where(ri == 0, off, 0.0) - np.where(li == p, off, 0.0)[:, None]
    vals = _pair_values(L[li, None], CL[li, None], R[ri], CR[ri], k, offs)
    a, b = np.unravel_index(np.argmax(vals), vals.shape)
    a, best = li[a], vals[a, b]
    while True:
        b = np.argmax(row(a))
        v = col(b)
        a = np.argmax(v)
        if not v[a] > best:
            return float(best)
        best = v[a]


def maximal(m: RadonMeasure, f: RealFunction, q, beta, x: float, *,
            table: LqTable | None = None) -> float:
    """Fractional maximal function sup_{I containing x} mu(I)^(1/beta-1/q) |f 1_I|_q.

    Exact over the table's interpolated C.  An interval [a, b] around
    t_x = F(x) is compared as (C(b) - C(a)) (b - a)^k, k = q/beta - 1 in
    [-1, 0], whose 1/q power its value is.  With one end fixed this has
    one critical point on each linear piece of C, a minimum, so the sup
    has both ends on the table's edges or at t_x (_table_sup).  t_x
    within 1e-9 (|t_x| + span) of an edge is that edge, as in
    maximal_profile: below that length the rounding of the interpolated
    C would be amplified, and just above it a value can still be lifted
    by a few 1e-10 relative.

    q = inf forces beta = inf, and an interval is worth sup_I |f|: the
    value is lq_norm over f's support.  NaN x gives NaN, infinite x the
    limit over unbounded intervals, and a table whose total is not
    finite gives NaN.
    """
    q, beta = Exponent.of(q), Exponent.of(beta)
    if q.recip < beta.recip:
        raise ValueError(f"maximal operator needs q <= beta "
                         f"(got q={q.value:g}, beta={beta.value:g})")
    t_x = float(m.cdf(x))
    if np.isnan(t_x):
        return np.nan
    if q.is_inf:
        return lq_norm(m, f, f.support, q)
    if table is None:
        table = LqTable(m, f, q)
    C = table.cum
    if not np.isfinite(C[-1]):
        return np.nan
    k = 0.0 if beta.recip == q.recip else q.value * beta.recip - 1.0
    if np.isinf(t_x):
        # An unbounded interval holds all of f: the total times inf^k.
        best = (C[-1] - C[0]) * np.inf ** k
    else:
        t_lo, t_hi, sing, brk = _t_layout(m, f)
        best = _table_sup(table.t_edges, C, t_x, [t_lo, t_hi, *sing, *brk], k)
    return best if q.value == 1.0 else best ** q.recip


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
    """max over i of s[i] |pts - ends[i]|^k at every point; ends not empty.

    pts and ends ascending, every point on the same side of every end,
    s > 0 and k <= 0.  Then the first argmax i(p) is nonincreasing in p:
    for i < j the log-ratio of the values of j and i is log(s[j]/s[i])
    plus a term with derivative k [1/|p - ends[i]| - 1/|p - ends[j]|]
    <= 0 in p.  So a divide and conquer over the points values the middle
    point of each open range over its column window, and the points
    below it search [argmax, hi], those above it [lo, argmax]; one level
    of every range is one flat array.  Each value is the one a dense
    (ends, points) array would hold, in the same operation order.  Where
    rounding turns a near-tie across a window split, a max can come out
    a few ulps lower (seen in random tests at k = -1e-12, never at the
    suite's k in [-0.75, -0.5] or at k = -1e-3).  O((points + ends) log
    points) values.
    """
    out = np.zeros(pts.size)
    if pts.size == 0:
        return out
    rlo, rhi = np.array([0]), np.array([pts.size])      # open point ranges
    clo, chi = np.array([0]), np.array([s.size - 1])    # their column windows
    while rlo.size:
        mid = (rlo + rhi) // 2
        width = chi - clo + 1
        start = np.cumsum(width) - width
        cols = np.arange(start[-1] + width[-1]) - np.repeat(start - clo, width)
        d = np.abs(np.repeat(pts[mid], width) - ends[cols])
        d **= k
        d *= s[cols]
        top = np.maximum.reduceat(d, start)
        out[mid] = top
        hit = np.where(d == np.repeat(top, width), cols, s.size)
        best = np.minimum.reduceat(hit, start)
        below, above = rlo < mid, mid + 1 < rhi
        rlo = np.concatenate([rlo[below], mid[above] + 1])
        rhi = np.concatenate([mid[below], rhi[above]])
        clo = np.concatenate([best[below], clo[above]])
        chi = np.concatenate([chi[below], best[above]])
    return out


def _spanning_max(M: np.ndarray) -> np.ndarray:
    """out[s] = max of M[i, j] over i <= s < j, for s < min(rows, cols - 1):
    a suffix max over the right ends, then a prefix max over the left."""
    R = np.maximum.accumulate(M[:, :0:-1], axis=1)[:, ::-1]
    return np.maximum.accumulate(R, axis=0).diagonal()


def _block_ranges(v: np.ndarray, ufunc, fill: float) -> np.ndarray:
    """R[I, J] = ufunc over v[I..J] for J >= I (fill below the diagonal)."""
    R = np.where(np.tri(v.size, k=-1, dtype=bool), fill, v)
    return ufunc.accumulate(R, axis=1)


def _inside_sups(E: np.ndarray, C: np.ndarray, k: float) -> np.ndarray:
    """S[p] = max of (C[b] - C[a]) (E[b] - E[a])^k over edges a <= p <= b,
    a < b, for every edge p; at least two edges, E ascending, C
    nondecreasing, k <= 0.

    The edges fall into blocks of _EDGE_TILE, and the pairs into tiles of
    (left block I, right block J), I <= J.  A lower bound per block is
    the best pair of block-first edges (or the last edge) that spans the
    whole block.  A tile's pairs are bounded by
    U2 = (steepest cell slope over I..J) (longest length)^(1 + k), since
    a C-difference is at most that slope times its length and 1 + k >= 0,
    and off the diagonal also by
    U1 = (C[last of J] - C[first of I]) (shortest length)^k.  A tile
    whose bound, with 1e-12 of slack for rounding, is at most the lower
    bound of every block from I to J holds no pair that beats the best
    one at a point it covers, and is skipped.  A kept tile serves its
    left block by a prefix max over its row maxima, its right block by a
    suffix max over its column maxima and every block between by its
    max; a diagonal tile takes the prefix max over a of each right end's
    values, up to that end.  Every number in S is a pair value and max
    is exact, so S has the bits of a pass over every pair.  Tiles are
    valued in chunks of at most _EDGE_BLOCK values; the bounds take
    O((n / _EDGE_TILE)^2) values.
    """
    n, B = E.size, _EDGE_TILE
    nb = -(-n // B)
    first = np.arange(nb) * B
    last = np.minimum(first + B, n) - 1
    heads = np.append(first, n - 1)
    lower = _spanning_max(_pair_values(E[heads, None], C[heads, None],
                                       E[heads], C[heads], k))

    slope = np.zeros(nb * B)
    slope[:n - 1] = np.diff(C) / np.diff(E)
    I, J = np.triu_indices(nb)
    with np.errstate(divide="ignore", invalid="ignore"):
        u1 = np.where(I < J, (C[last[J]] - C[first[I]])
                      * (E[first[J]] - E[last[I]]) ** k, np.inf)
    u2 = (_block_ranges(slope.reshape(nb, B).max(axis=1), np.maximum, 0.0)[I, J]
          * (E[last[J]] - E[first[I]]) ** (1.0 + k))
    floor = _block_ranges(lower, np.minimum, np.inf)[I, J]
    keep = ~(np.minimum(u1, u2) * (1.0 + 1e-12) <= floor)
    I, J = I[keep], J[keep]

    S = np.repeat(lower[:, None], B, axis=1)
    W = np.zeros((nb, nb))                # kept tile maxima, by (I, J)
    span = np.arange(B)
    past = span[:, None] > span           # point past the right end
    per = max(1, _EDGE_BLOCK // (B * B))
    for t0 in range(0, I.size, per):
        ti, tj = I[t0:t0 + per], J[t0:t0 + per]
        # An end past the last edge is the last edge, so its pairs are
        # real, and a pair with b <= a is worth at most 0, below the
        # pair (0, n - 1) at any point as C[n - 1] > C[0]: neither needs
        # a mask.
        a = np.minimum(first[ti, None] + span, n - 1)[:, :, None]
        b = np.minimum(first[tj, None] + span, n - 1)[:, None, :]
        d = _pair_values(E[a], C[a], E[b], C[b], k)
        diag = ti == tj
        if diag.any():
            dd = np.maximum.accumulate(d[diag], axis=1)
            dd[:, past] = 0.0
            np.maximum.at(S, ti[diag], dd.max(axis=2))
        off = ~diag
        if off.any():
            rows, cols = d.max(axis=2)[off], d.max(axis=1)[off]
            np.maximum.at(S, ti[off], np.maximum.accumulate(rows, axis=1))
            np.maximum.at(S, tj[off],
                          np.maximum.accumulate(cols[:, ::-1], axis=1)[:, ::-1])
            W[ti[off], tj[off]] = rows.max(axis=1)
    if nb > 2:
        np.maximum(S[1:-1], _spanning_max(W[:, 1:])[:, None], out=S[1:-1])
    return S.ravel()[:n]


def _edge_sups(E: np.ndarray, C: np.ndarray, k: float) -> np.ndarray:
    """S[p] = max of (C[b] - C[a]) (E[b] - E[a])^k over edges a <= p <= b,
    a < b, for every edge p; E ascending, C nondecreasing, k <= 0.

    C is flat up to edge i0 and from edge i1 on.  A shorter interval with
    the same C-difference is worth at least as much, so an interval may
    be cut back to [i0, i1] wherever the cut still contains p: a point
    inside takes a, b in [i0, i1], a point left of i0 takes a = p and a
    point right of i1 takes b = p.  The inside points take the pairs of
    the tiles that a bound cannot rule out (_inside_sups).  The outer
    points take the best far end (_outer_sups), which moves monotonically
    with the point: the further the point from the support, the less the
    length factor |p - e|^k tells the far ends apart, and the further out
    (the larger the C-difference) its best far end.  So a divide and
    conquer over the points finds every best far end in O(n log n) values.
    """
    S = np.zeros(E.size)
    i0 = int(np.searchsorted(C, C[0], side="right")) - 1
    i1 = int(np.searchsorted(C, C[-1], side="left"))
    if i1 <= i0:
        return S
    S[:i0] = _outer_sups(C[i0 + 1:i1 + 1] - C[i0], E[i0 + 1:i1 + 1], E[:i0], k)
    S[i1 + 1:] = _outer_sups(C[i1] - C[i0:i1], E[i0:i1], E[i1 + 1:], k)
    S[i0:i1 + 1] = _inside_sups(E[i0:i1 + 1], C[i0:i1 + 1], k)
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
    its integral and cannot lower its value (_edge_sups).  Inside f's
    support the pairs are valued by tiles of (left block, right block) of
    edges, and a tile is skipped where its bound is at most the best
    spanning pair of block-first edges at every point it covers; the
    values are the bits of a pass over every pair (_inside_sups).  The sup
    is compared as (C[b] - C[a]) (b - a)^(q/beta - 1), whose 1/q power it
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
        if None not in cuts:                 # no cut moves with t
            yield rows, cuts, sing, counts[0]
            continue
        keys, which = np.unique(counts, axis=0, return_inverse=True)
        which = which.ravel()
        for u, bases in enumerate(keys):
            yield rows[which == u], cuts, sing, bases


def _far_bound(rho, n):
    """The far-field series' terms after the n-th over |d|^(gamma-1) |f|_1
    add at most sum_{j > n} rho^j, since |binom(gamma-1, j)| <= 1 for
    gamma - 1 in (-1, 0) and |M_j| <= |f|_1."""
    return rho ** (n + 1) / (1.0 - rho)


def _far_moments(runs, c: float, w: float, n: int) -> np.ndarray | None:
    """M_j = int ((y - c)/w)^j f dmu for j = 0..n on the panel runs, each
    panel's 15 values weighted as the quadrature weighs them and each
    graded run closed by its ladder tail; None when a panel sum is not
    finite or a moment's ladder diverges."""
    half, y, fy = (np.concatenate([r[i] for r in runs]) for i in (1, 2, 3))
    u = (y - c) / w
    v = np.empty((n + 1,) + fy.shape)
    v[0] = fy
    for j in range(1, n + 1):
        np.multiply(v[j - 1], u, out=v[j])
    p = half * (v @ GK_WEIGHTS)
    if not np.isfinite(p).all():
        return None
    total = p.sum(axis=1)
    start = 0
    for nodes, _, _, _, graded in runs:
        stop = start + nodes.shape[0]
        if graded:
            rem, diverging = _ladder_tail(p[:, start:stop], 1e-12)
            if diverging.any():
                return None
            total = total + rem
        start = stop
    return total


def _far_field(f: RealFunction, k: Kernel, xs: np.ndarray, runs):
    """(far, values): K f at the points of xs far from f's support, valued
    without quadrature; runs are the outside group's panel runs.

    Riesz kernel: a point is far when d = x - c has |d| > 2w, with c the
    centre and w the half width of f's support.  There rho = w/|d| < 1/2
    and K f(x) = |d|^(gamma-1) sum_n binom(gamma-1, n) (-w/d)^n M_n, one
    binomial expansion about c (the far field of the fast multipole
    method, Greengard & Rokhlin 1987), summed by Horner over n <= N.  The
    moments come from the runs (_far_moments), so the series is the
    quadrature up to truncation and rounding.  N is the least with
    _far_bound(rho, N) <= _FAR_TOL at the nearest far point.  A bounded
    kernel is exactly 0 at a point farther than its reach from every node.
    Where a node's f value or a moment is not finite, or a moment's ladder
    diverges, no point is far, and the quadrature raises its errors.
    """
    none = np.zeros(xs.size, bool), np.empty(0)
    if not all(np.isfinite(fy).all() for _, _, _, fy, _ in runs):
        return none
    if k.singular_exponent is None:
        y = np.concatenate([y.ravel() for _, _, y, _, _ in runs])
        lo, hi = y.min(), y.max()
        # x - y rounds monotonically in y, so the nearest node is the test.
        far = ((xs < lo) & (lo - xs > k.reach)) | ((xs > hi) & (xs - hi > k.reach))
        return far, np.zeros(np.count_nonzero(far))
    c, w = 0.5 * (f.support.a + f.support.b), 0.5 * (f.support.b - f.support.a)
    d = xs - c
    far = np.abs(d) > 2.0 * w
    if not far.any():
        return none
    d = d[far]
    rho = float(np.max(w / np.abs(d)))
    n = int(np.argmax(_far_bound(rho, np.arange(_FAR_TERMS)) <= _FAR_TOL))
    moments = _far_moments(runs, c, w, n)
    if moments is None:
        return none
    e = k.singular_exponent
    j = np.arange(n)
    coef = moments * np.cumprod(np.concatenate([[1.0], (e - j) / (j + 1.0)]))
    z = -w / d
    acc = np.full(d.size, coef[-1])
    for a in coef[-2::-1]:
        acc *= z
        acc += a
    return far, k(d) * acc


def _profile_group(m: RadonMeasure, f: RealFunction, k: Kernel,
                   xs: np.ndarray, ts: np.ndarray, cuts, sing, bases):
    """K f at the points xs (with ts = F(xs)) of one layout group.

    In the group outside the support, the far points are valued by
    _far_field and the others by the quadrature.  Returns (values,
    error), where error is (row, exception) for the first row whose
    integrand gives NaN or whose graded sums do not decay, and None when
    every row is fine.
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
    far = np.zeros(xs.size, bool)
    if len(shared) == len(segs):         # no panel moves with x
        far, vals = _far_field(f, k, xs, sum(shared.values(), []))
        out[far] = vals
    rest = np.flatnonzero(~far)
    for s in range(0, rest.size, _PROFILE_BATCH):
        rows = rest[s:s + _PROFILE_BATCH]
        x = xs[rows, None, None]
        tb = ts[rows]
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
        out[rows] = total
        if errors:
            r, exc = min(errors, key=lambda e: e[0])
            return out, (rows[r], exc)
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
    values shared by the panels that do not move with x.  Outside the
    support, a point more than twice the support's half width from its
    centre takes the Riesz kernel's far-field series instead, and a point
    beyond a bounded kernel's reach is 0 (_far_field): the same panels'
    value up to truncation (2^-56 relative to |d|^(gamma-1) |f|_1) and
    rounding, about 1e-16 relative.  Points on a singular point of f give
    NaN; non-decaying ladder sums raise DivergenceError and NaN integrands
    EvaluationError, for the first such point in xs.
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


def farfield_bound_check(m: RadonMeasure, f: RealFunction, q, beta,
                         y1: float, x1: float, x2: float, y2: float,
                         x: float, k: Kernel, *,
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
    if abs(left - right) > FLANK_MASS_TOL * scale:
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

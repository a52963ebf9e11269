"""Lebesgue, weak-Lebesgue, block and amalgam norms over a Radon measure.

The block norm at scale r groups an equal-mass partition's blocks:

    |f|_{q,p;r} = ( sum_i |f 1_{I_i}|_q^p )^(1/p),    sup_i for p = inf,

and the amalgam norm takes sup over scales with the mass-dimensional
correction r^(1/alpha - 1/q).  The space is nontrivial only when
q <= alpha <= p; at alpha = q or alpha = p it collapses to L^alpha.

Heavy lifting goes through LqTable, a cumulative table of |f|^q in
measure coordinates: any block integral is then a difference of two
interpolated values.  amalgam_norm values its whole scale grid in one
pass: every scale's block edges in one array, one np.interp and one
power to 1/q and to p over all blocks, then each scale's sum over its
own slice (about 4 us a scale).  Each of the 62 scales that the
golden-section polish of the best scale evaluates is valued with about
ten numpy calls, whatever the number of blocks: about 8 us on a 2-vCPU
Xeon, against 20 us for a pass of the grid code over one scale.  A
caller that needs
the same table more than once (a scenario verify) holds it in an
LqTables and passes it down through table=.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functions import RealFunction
from .measure import (IntervalRC, RadonMeasure, _cuts, _ladder, _ladder_ends,
                      gk_panels, integrate)

__all__ = [
    "Exponent",
    "TrivialSpaceError",
    "LqTable",
    "LqTables",
    "lq_norm",
    "weak_norm",
    "block_norm",
    "amalgam_norm",
]


@dataclass(frozen=True)
class Exponent:
    """An exponent in [1, inf]; reciprocal arithmetic uses recip."""

    value: float

    def __post_init__(self):
        if not (self.value >= 1.0):   # also rejects NaN
            raise ValueError(f"exponent must lie in [1, inf], got {self.value}")

    @property
    def recip(self) -> float:
        return 0.0 if math.isinf(self.value) else 1.0 / self.value

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    @classmethod
    def of(cls, v) -> "Exponent":
        if isinstance(v, Exponent):
            return v
        if isinstance(v, str):
            if v.lower() in ("inf", "infinity"):
                return cls(np.inf)
            v = float(v)
        return cls(float(v))

    @classmethod
    def from_recip(cls, r: float) -> "Exponent":
        if not (0.0 <= r <= 1.0):
            raise ValueError(f"reciprocal exponent must lie in [0, 1], got {r}")
        return cls(np.inf) if r == 0.0 else cls(1.0 / r)

    def __repr__(self):
        return "Exponent(inf)" if self.is_inf else f"Exponent({self.value:g})"


# The geometric levels of weak_norm's scan for f with declared levels.
LAMBDA_GRID_SIZE = 512


class TrivialSpaceError(ValueError):
    """Raised when an exponent triple makes the amalgam space trivial."""


def _t_range(m: RadonMeasure, f: RealFunction) -> tuple[float, float]:
    return m.cdf(f.support.a), m.cdf(f.support.b)


def _t_layout(m: RadonMeasure, f: RealFunction):
    """F of the support ends, the singular points and the breakpoints of f."""
    t_lo, t_hi = _t_range(m, f)
    sing = [m.cdf(s) for s in f.singularities]
    return t_lo, t_hi, sing, [m.cdf(b) for b in f.breakpoints]


class LqTable:
    """Cumulative integral of |f|^q along measure coordinates.

    cum[i] = int_{t_edges[0]}^{t_edges[i]} |f(F^{-1}(t))|^q dt, with cell
    edges snapped to the declared breakpoints and singularities of f.
    Cells touching a singular point use the graded ladder, everything
    else a single Gauss-Kronrod pass per cell (the cells are small).
    """

    def __init__(self, m: RadonMeasure, f: RealFunction, q: Exponent,
                 cells: int = 4096):
        if q.is_inf:
            raise ValueError("LqTable requires a finite exponent")
        t_lo, t_hi, sing, brk = _t_layout(m, f)
        cuts, _ = _cuts(t_lo, t_hi, sing, brk)
        edges = np.unique(np.concatenate([np.linspace(t_lo, t_hi, cells + 1), cuts]))
        qv = q.value

        def phi(t):
            with np.errstate(divide="ignore", over="ignore"):
                return np.abs(np.asarray(f(m.inv_cdf(t)), float)) ** qv

        vals, _ = gk_panels(phi, edges[:-1], edges[1:])
        # Redo the cells meeting a singular edge, in order; a cell singular
        # at both ends gets two ladders meeting at its middle.
        singular = np.isin(edges, sing)
        for j in np.flatnonzero(singular[:-1] | singular[1:]):
            ends = _ladder_ends(edges[j], edges[j + 1], singular[j], singular[j + 1])
            vals[j] = _ladder(phi, *ends[0], 1e-12)
            if len(ends) == 2:
                vals[j] += _ladder(phi, *ends[1], 1e-12)
        self.q = q
        self.t_edges = edges
        self.cum = np.concatenate([[0.0], np.cumsum(vals)])


class LqTables:
    """The LqTables of one computation, each built on first use.

    Every run of a scenario rebuilds its measure and functions, so a table
    is found by value: the measure's key, q, and f's label, support,
    singular points, breakpoints and its values there and at eleven
    points across the support.  The label alone would not do: a
    restricted f keeps its label on another support, and a tent's height
    or a power's coefficient is not in it.  An infinite q has no table:
    get gives None.
    """

    def __init__(self):
        self._tables: dict[tuple, LqTable] = {}

    def get(self, m: RadonMeasure, f: RealFunction, q) -> LqTable | None:
        q = Exponent.of(q)
        if q.is_inf:
            return None
        with np.errstate(all="ignore"):
            probe = np.concatenate([f.singularities, f.breakpoints,
                                    np.linspace(f.support.a, f.support.b, 11)])
            values = np.asarray(f(probe), float)
        key = (m.key, q.value, f.label, f.support.a, f.support.b,
               f.singularities, f.breakpoints, values.tobytes())
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = LqTable(m, f, q)
        return table


def _sample_abs(m: RadonMeasure, f: RealFunction, t_lo: float, t_hi: float,
                n: int) -> np.ndarray:
    """|f| at the midpoints of n equal cells of [t_lo, t_hi] in measure
    coordinates."""
    ts = t_lo + (t_hi - t_lo) * (np.arange(n) + 0.5) / n
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.abs(np.asarray(f(m.inv_cdf(ts)), float))
    return vals


def _sup_abs(m: RadonMeasure, f: RealFunction, a: float, b: float) -> float:
    """The sup of |f| on [a, b) as lq_norm's q = inf reads it: at 4097
    sampled midpoints, a, the double just below b (the left limit there)
    and f's singular points and breakpoints in [a, b), where a spike
    peaks.  NaN values are skipped; with no other value the sup is 0."""
    t_lo, t_hi = m.cdf(np.array([a, b]))
    marked = np.array([*f.singularities, *f.breakpoints], float)
    points = np.concatenate([[a, np.nextafter(b, -np.inf)],
                             marked[(marked >= a) & (marked < b)]])
    with np.errstate(divide="ignore", over="ignore"):
        at = np.abs(np.asarray(f(points), float))
    sup = np.fmax(np.fmax.reduce(_sample_abs(m, f, t_lo, t_hi, 4097)),
                  np.fmax.reduce(at))
    return 0.0 if np.isnan(sup) else float(sup)


def lq_norm(m: RadonMeasure, f: RealFunction, interval: IntervalRC,
            q, tol: float = 1e-8) -> float:
    """L^q(mu) norm of f over the interval; for q = inf the sup of |f| at
    4097 sampled midpoints, the left end, the double just below the right
    end (the left limit there) and f's singular points and breakpoints in
    [a, b), where a spike peaks (NaN values ignored)."""
    q = Exponent.of(q)
    if q.is_inf:
        return _sup_abs(m, f, interval.a, interval.b)
    qv = q.value

    def g(x):
        with np.errstate(divide="ignore", over="ignore"):
            return np.abs(np.asarray(f(x), float)) ** qv

    val = integrate(m, g, interval, tol=tol,
                    singularities=getattr(f, "singularities", ()),
                    breakpoints=getattr(f, "breakpoints", ()))
    return val ** (1.0 / qv)


def level_set_mass(m: RadonMeasure, f: RealFunction, lam,
                   strict: bool = True):
    """mu(|f| > lam) (or >= lam) for a scalar lam (a float) or an array of
    them (an array of that shape), from f's declared per-piece level sets:
    one m.cdf call over every piece end of every level.  f without
    declared levels raises ValueError."""
    if f.levels is None:
        raise ValueError(f"{f.label} declares no level sets")
    lams = np.asarray(lam, float)
    lo, hi = f.levels(lams.reshape(-1), strict)
    ends = m.cdf(np.stack([lo, hi]))
    mass = np.where(hi > lo, ends[1] - ends[0], 0.0).sum(axis=0)
    return float(mass[0]) if lams.ndim == 0 else mass.reshape(lams.shape)


def _top(prof: np.ndarray) -> float:
    vals = prof[np.isfinite(prof)]
    return float(vals.max()) if vals.size else 0.0


def _levels(values: np.ndarray, prof: np.ndarray,
            floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct finite value v >= floor of prof, ascending, with the
    sum of values over {prof >= v}.

    That sum is the left limit S(v-) of the step function
    S(lam) = sum of values over {prof > lam}.  So for k >= 0 and rhs
    continuous and nonincreasing, the sup of lam^k * S(lam)^e / rhs(lam)
    over floor <= lam <= max(prof) is the max of v^k * S(v-)^e / rhs(v)
    over these levels.  NaN points are in no level set and +inf points
    in every one.  A profile with no positive finite value gives the one
    level 1, and one with none at or above the floor the one level floor."""
    if not _top(prof) > 0.0:
        floor = 1.0
    order = np.argsort(-prof, kind="stable")    # NaN sorts last: in no sum
    desc = prof[order]
    sums = np.cumsum(values[order])
    last = np.append(desc[1:] != desc[:-1], True)
    sel = last & np.isfinite(desc) & (desc >= floor)
    if not sel.any():
        return np.array([floor]), np.array([values[prof >= floor].sum()])
    return desc[sel][::-1], sums[sel][::-1]


def weak_norm(m: RadonMeasure, f: RealFunction, alpha) -> float:
    """Weak L^alpha norm: sup_lam lam * mu(|f| > lam)^(1/alpha), over lam
    from max(smallest positive sample, 1e-15 * largest) of |f| at 4096
    equal cells.  Without declared levels mu counts the cells above lam,
    so the sup is exact at the samples (_levels).  With them lam runs
    over LAMBDA_GRID_SIZE geometric levels, each with the exact mass of
    the open and the closed level set (the left limit; exact on plateaus):
    two level_set_mass calls over the whole grid.
    """
    alpha = Exponent.of(alpha)
    if alpha.is_inf:
        return lq_norm(m, f, f.support, alpha)
    t_lo, t_hi = _t_range(m, f)
    vals = _sample_abs(m, f, t_lo, t_hi, 4096)
    top = _top(vals)
    if not top > 0.0:
        return 0.0
    floor = max(float(np.min(vals[vals > 0.0])), top * 1e-15)
    ra = alpha.recip
    if f.levels is None:
        lams, mus = _levels(np.full(vals.shape, (t_hi - t_lo) / vals.size), vals, floor)
        return float(np.max(lams * mus ** ra))
    lams = np.geomspace(floor, top, LAMBDA_GRID_SIZE)
    mus = [level_set_mass(m, f, lams, strict) for strict in (True, False)]
    return float(np.max(lams * np.array(mus) ** ra))


def _check_scales(rs: np.ndarray):
    bad = rs[~((rs > 0.0) & np.isfinite(rs))]
    if bad.size:
        raise ValueError(f"block scale r must be positive and finite, got {bad[0]}")


def _block_edges(t0: float, rs: np.ndarray, t_lo: float,
                 t_hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every scale r of rs, the edges t0 + i r, i_lo <= i <= i_hi, of the
    blocks meeting [t_lo, t_hi] (at least one block), concatenated scale
    after scale; with where each scale's run starts and how many edges
    it has."""
    i_lo = np.floor((t_lo - t0) / rs).astype(np.int64)
    n = np.maximum(np.ceil((t_hi - t0) / rs).astype(np.int64) - i_lo, 1) + 1
    starts = n.cumsum() - n
    i = np.arange(starts[-1] + n[-1]) + (i_lo - starts).repeat(n)
    return t0 + i * rs.repeat(n), starts, n


def _powered(values: np.ndarray, p: Exponent) -> np.ndarray:
    """Block values raised to p, the form _combine reads; as they are at
    p = inf."""
    return values if p.is_inf else values ** p.value


def _combine(powered: np.ndarray, p: Exponent) -> float:
    """|f|_{q,p;r} from its blocks' values raised to p (_powered): their
    sum to the 1/p (numpy's pairwise sum), or at p = inf their max."""
    if p.is_inf:
        return float(powered.max()) if powered.size else 0.0
    return float(powered.sum() ** (1.0 / p.value))


def _block_values(table: LqTable, edges) -> np.ndarray:
    """|f 1_I|_q of the blocks I between consecutive edges: one np.interp
    of the table over all edges, then the clipped differences to the 1/q."""
    cum = np.interp(edges, table.t_edges, table.cum)
    return np.maximum(cum[1:] - cum[:-1], 0.0) ** (1.0 / table.q.value)


def _scale_value(table: LqTable, p: Exponent, expo: float, t0: float,
                 t_lo: float, t_hi: float, r: float) -> float:
    """r^expo |f|_{q,p;r} at the one scale r, with the block indices of
    _block_edges as Python integers: about ten numpy calls (one
    np.interp, the clipped differences, two array powers and one sum),
    about 8 us on a 2-vCPU Xeon however many blocks the support meets.
    The powers and the sum stay numpy's, on arrays, as in the grid pass:
    a Python pow or sum can differ in the last bit, and one scale must
    give the bits that many give."""
    i_lo = math.floor((t_lo - t0) / r)
    i_hi = max(math.ceil((t_hi - t0) / r), i_lo + 1)
    values = _block_values(table, [t0 + i * r for i in range(i_lo, i_hi + 1)])
    return r ** expo * _combine(_powered(values, p), p)


def _scale_values(table: LqTable, p: Exponent, expo: float, t0: float,
                  t_lo: float, t_hi: float, rs: np.ndarray) -> np.ndarray:
    """r^expo |f|_{q,p;r} for every scale r of rs, in one pass: one
    np.interp over the edges of all scales (_block_edges) and one power
    to 1/q and one to p over all blocks; per scale only its slice's sum
    (numpy's pairwise sum, as _scale_value's) and the scalar powers
    remain, about 4 us.  The pairs that straddle two scales' runs are
    valued too, and skipped."""
    edges, starts, n = _block_edges(t0, rs, t_lo, t_hi)
    powered = _powered(_block_values(table, edges), p)
    return np.array([r ** expo * _combine(powered[a:a + k - 1], p)
                     for r, a, k in zip(rs.tolist(), starts.tolist(), n.tolist())])


def block_norm(m: RadonMeasure, f: RealFunction, q, p, r: float,
               x0: float = 0.0, table: LqTable | None = None) -> float:
    """Block norm at scale r for the partition anchored at x0.

    Only blocks meeting the support are evaluated.  At q = inf a block's
    value is lq_norm's sup over it, which reads f's singular points and
    breakpoints.
    """
    q, p = Exponent.of(q), Exponent.of(p)
    rs = np.array([r], float)
    _check_scales(rs)
    t_lo, t_hi = _t_range(m, f)
    if q.is_inf:
        xs = m.inv_cdf(_block_edges(m.cdf(x0), rs, t_lo, t_hi)[0]).tolist()
        sups = np.array([_sup_abs(m, f, a, b) for a, b in zip(xs[:-1], xs[1:])])
        # a sup read next to a singular point can overflow its power to p,
        # and then the norm is inf: the true value, not a warning
        with np.errstate(over="ignore"):
            return _combine(_powered(sups, p), p)
    if table is None:
        table = LqTable(m, f, q)
    return _scale_value(table, p, 0.0, m.cdf(x0), t_lo, t_hi, float(rs[0]))


def _golden_max(fn, lo: float, hi: float, iters: int = 60) -> tuple[float, float]:
    """Golden-section maximizer on [lo, hi]; returns (argmax, value)."""
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


def default_r_grid(mass: float, count: int = 64) -> np.ndarray:
    """Geometric scale grid spanning [mass/256, 4*mass]."""
    mass = max(mass, 1e-12)
    return np.geomspace(mass / 256.0, 4.0 * mass, count)


def amalgam_norm(m: RadonMeasure, f: RealFunction, q, p, alpha,
                 r_grid: Sequence[float] | None = None,
                 x0: float = 0.0, *, table: LqTable | None = None
                 ) -> tuple[float, float]:
    """Amalgam norm sup_r r^(1/alpha - 1/q) |f|_{q,p;r} and its argmax r.

    The scan grid is geometric (default_r_grid unless given; every scale
    must be positive and finite, and there must be one).  For finite q
    the whole grid is valued in one pass over f's LqTable: table= if
    given (it must be the table of m, f and q), else one built here.
    The winning scale is then polished by golden section on log r
    between its grid neighbours: 60 steps, 62 scales, each valued by
    _scale_value in about ten numpy calls (about 8 us).  At alpha = p
    no scale is scanned and no table read: by Hoelder every scale's
    value is at most |f|_p, and it tends to |f|_p as r -> 0, so the
    norm is lq_norm of f over its support and the returned r is 0.0,
    standing for that limit.  (alpha = q has no such
    shortcut: the partition is anchored at x0, so a support that
    straddles it stays in two blocks at every scale.)
    """
    q, p, alpha = Exponent.of(q), Exponent.of(p), Exponent.of(alpha)
    if q.recip < alpha.recip or alpha.recip < p.recip:
        raise TrivialSpaceError(
            f"amalgam space is trivial unless q <= alpha <= p "
            f"(got q={q.value:g}, alpha={alpha.value:g}, p={p.value:g})")
    if r_grid is not None:
        r_grid = np.asarray(r_grid, float)
        if r_grid.size == 0:
            raise ValueError("amalgam norm needs at least one block scale in r_grid")
        _check_scales(r_grid)
    if alpha.recip == p.recip:
        return float(lq_norm(m, f, f.support, p)), 0.0
    if r_grid is None:
        r_grid = default_r_grid(m.mass(f.support))
    # q <= alpha <= p and alpha < p leave q finite.
    expo = alpha.recip - q.recip
    if table is None:
        table = LqTable(m, f, q)
    t0 = m.cdf(x0)
    t_lo, t_hi = _t_range(m, f)
    vals = _scale_values(table, p, expo, t0, t_lo, t_hi, r_grid)
    if not np.any(vals > 0.0):
        return 0.0, float(r_grid[0])
    j = int(np.argmax(vals))
    lo = r_grid[max(j - 1, 0)]
    hi = r_grid[min(j + 1, len(r_grid) - 1)]
    r_best, v_best = _golden_max(
        lambda u: _scale_value(table, p, expo, t0, t_lo, t_hi, float(np.exp(u))),
        np.log(lo), np.log(hi))
    if v_best >= vals[j]:
        return float(v_best), float(np.exp(r_best))
    return float(vals[j]), float(r_grid[j])

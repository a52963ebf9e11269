"""Lebesgue, weak-Lebesgue, block and amalgam norms over a Radon measure.

The block norm at scale r groups an equal-mass partition's blocks:

    |f|_{q,p;r} = ( sum_i |f 1_{I_i}|_q^p )^(1/p),    sup_i for p = inf,

and the amalgam norm takes sup over scales with the mass-dimensional
correction r^(1/alpha - 1/q).  The space is nontrivial only when
q <= alpha <= p; at alpha = q or alpha = p it collapses to L^alpha.

Heavy lifting goes through LqTable, a cumulative table of |f|^q in
measure coordinates: any block integral is then a difference of two
interpolated values, which makes scans over many scales cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functions import RealFunction, level_set_intervals
from .measure import (IntervalRC, RadonMeasure, _cuts, _ladder, gk_panels,
                      integrate)

__all__ = [
    "Exponent",
    "TrivialSpaceError",
    "LqTable",
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
        return 0.0 if np.isinf(self.value) else 1.0 / self.value

    @property
    def is_inf(self) -> bool:
        return bool(np.isinf(self.value))

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
        cuts, flags = _cuts(t_lo, t_hi, sing, brk)
        edges = np.unique(np.concatenate([np.linspace(t_lo, t_hi, cells + 1), cuts]))
        qv = q.value

        def phi(t):
            with np.errstate(divide="ignore", over="ignore"):
                return np.abs(np.asarray(f(m.inv_cdf(t)), float)) ** qv

        vals, _ = gk_panels(phi, edges[:-1], edges[1:])
        for s in (c for c, singular in zip(cuts, flags) if singular):
            j = int(np.searchsorted(edges, s))
            # Redo the (at most two) cells meeting the singular edge.
            if j > 0:
                vals[j - 1] = _ladder(phi, s, edges[j - 1], 1e-12)
            if j < len(edges) - 1:
                vals[j] = _ladder(phi, s, edges[j + 1], 1e-12)
        self.m = m
        self.f = f
        self.q = q
        self.t_edges = edges
        self.cum = np.concatenate([[0.0], np.cumsum(vals)])
        self.total = float(self.cum[-1])

    def mass_between(self, t0, t1):
        """int |f|^q dt over [t0, t1] (vectorized); zero outside the table."""
        c0 = np.interp(t0, self.t_edges, self.cum)
        c1 = np.interp(t1, self.t_edges, self.cum)
        return np.maximum(c1 - c0, 0.0)

    def block_values(self, edges: np.ndarray) -> np.ndarray:
        """Per-block q-norms for consecutive edge pairs."""
        return self.mass_between(edges[:-1], edges[1:]) ** (1.0 / self.q.value)


def _sample_abs(m: RadonMeasure, f: RealFunction, t_lo: float, t_hi: float,
                n: int) -> np.ndarray:
    """|f| at n cell midpoints in measure coordinates (finite values)."""
    ts = t_lo + (t_hi - t_lo) * (np.arange(n) + 0.5) / n
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.abs(np.asarray(f(m.inv_cdf(ts)), float))
    return vals


def lq_norm(m: RadonMeasure, f: RealFunction, interval: IntervalRC,
            q, tol: float = 1e-8) -> float:
    """L^q(mu) norm of f over the interval; q may be inf (sampled sup)."""
    q = Exponent.of(q)
    t_lo, t_hi = m.cdf(interval.a), m.cdf(interval.b)
    if q.is_inf:
        vals = _sample_abs(m, f, t_lo, t_hi, 4097)
        return float(np.max(vals)) if vals.size else 0.0
    qv = q.value

    def g(x):
        with np.errstate(divide="ignore", over="ignore"):
            return np.abs(np.asarray(f(x), float)) ** qv

    val = integrate(m, g, interval, tol=tol,
                    singularities=getattr(f, "singularities", ()),
                    breakpoints=getattr(f, "breakpoints", ()))
    return val ** (1.0 / qv)


def level_set_mass(m: RadonMeasure, f: RealFunction, lam: float,
                   strict: bool = True, samples: int = 4096) -> float:
    """mu(|f| > lam) (or >= lam), via declared structure when available."""
    if f.tail_bound > 0.0 and lam < f.tail_bound:
        return np.inf
    pieces = level_set_intervals(f, lam, strict)
    if pieces is not None:
        return float(sum(m.cdf(hi) - m.cdf(lo) for lo, hi in pieces if hi > lo))
    t_lo, t_hi = _t_range(m, f)
    vals = _sample_abs(m, f, t_lo, t_hi, samples)
    hits = (vals > lam) if strict else (vals >= lam)
    return float(np.count_nonzero(hits)) * (t_hi - t_lo) / samples


def weak_norm(m: RadonMeasure, f: RealFunction, alpha,
              lambda_grid_size: int = 512) -> float:
    """Weak L^alpha norm: sup_lam lam * mu(|f| > lam)^(1/alpha).

    The sup is scanned on a log grid over the observed range of |f|;
    each level also contributes the closed-set candidate
    lam * mu(|f| >= lam)^(1/alpha), which is the left limit of admissible
    values and pins down plateau functions exactly.
    """
    alpha = Exponent.of(alpha)
    if alpha.is_inf:
        return lq_norm(m, f, f.support, alpha)
    t_lo, t_hi = _t_range(m, f)
    vals = _sample_abs(m, f, t_lo, t_hi, 4096)
    finite = vals[np.isfinite(vals)]
    pos = finite[finite > 0.0]
    if pos.size == 0:
        return 0.0
    top = float(np.max(pos))
    bottom = float(np.min(pos))
    lams = np.geomspace(max(bottom, top * 1e-15), top, lambda_grid_size)
    ra = alpha.recip
    if f.levels is None:
        if f.tail_bound > 0.0 and lams[0] < f.tail_bound:
            return np.inf
        # Pure sampling: count exceedances for all levels in one sort.
        cell = (t_hi - t_lo) / vals.size
        svals = np.sort(vals)
        open_cnt = vals.size - np.searchsorted(svals, lams, side="right")
        closed_cnt = vals.size - np.searchsorted(svals, lams, side="left")
        cand = np.concatenate([lams * (open_cnt * cell) ** ra,
                               lams * (closed_cnt * cell) ** ra])
        return float(np.max(cand))
    best = 0.0
    for lam in lams:
        for strict in (True, False):
            mass = level_set_mass(m, f, lam, strict=strict)
            cand = lam * mass ** ra if np.isfinite(mass) else np.inf
            if cand > best:
                best = float(cand)
    return best


def _block_edges(t0: float, r: float, t_lo: float, t_hi: float) -> np.ndarray:
    i_lo = int(np.floor((t_lo - t0) / r))
    i_hi = int(np.ceil((t_hi - t0) / r))
    if i_hi <= i_lo:
        i_hi = i_lo + 1
    return t0 + np.arange(i_lo, i_hi + 1) * r


def _block_values_inf(m: RadonMeasure, f: RealFunction, edges: np.ndarray,
                      samples: int = 257) -> np.ndarray:
    frac = (np.arange(samples) + 0.5) / samples
    ts = edges[:-1, None] + np.diff(edges)[:, None] * frac[None, :]
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.abs(np.asarray(f(m.inv_cdf(ts.ravel())), float)).reshape(ts.shape)
    return np.max(vals, axis=1)


def _combine(values: np.ndarray, p: Exponent, tail_candidate: float = 0.0) -> float:
    if p.is_inf:
        vmax = float(np.max(values)) if values.size else 0.0
        return max(vmax, tail_candidate)
    if tail_candidate > 0.0:
        return np.inf   # infinitely many tail blocks each above zero
    return float(np.sum(values ** p.value) ** (1.0 / p.value))


def block_norm(m: RadonMeasure, f: RealFunction, q, p, r: float,
               x0: float = 0.0, table: LqTable | None = None) -> float:
    """Block norm at scale r for the partition anchored at x0.

    Only blocks meeting the effective support are evaluated; with a
    declared nonzero tail bound the remaining blocks contribute
    tail_bound * r^(1/q) apiece (finite only in the sup combination).
    """
    q, p = Exponent.of(q), Exponent.of(p)
    if not (r > 0.0) or not np.isfinite(r):
        raise ValueError(f"block scale r must be positive and finite, got {r}")
    t_lo, t_hi = _t_range(m, f)
    edges = _block_edges(m.cdf(x0), r, t_lo, t_hi)
    if q.is_inf:
        values = _block_values_inf(m, f, edges)
        tail = f.tail_bound
    else:
        if table is None:
            table = LqTable(m, f, q)
        values = table.block_values(edges)
        tail = f.tail_bound * r ** q.recip
    return _combine(values, p, tail_candidate=tail)


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
                 x0: float = 0.0) -> tuple[float, float]:
    """Amalgam norm sup_r r^(1/alpha - 1/q) |f|_{q,p;r} and its argmax r.

    The scan grid is geometric; the winning scale is then polished by
    golden section on log r between its grid neighbours.  At alpha = p
    no scale is scanned: by Hoelder every scale's value is at most
    |f|_p, and it tends to |f|_p as r -> 0, so the norm is lq_norm of f
    over its support and the returned r is 0.0, standing for that limit.
    (alpha = q has no such shortcut: the partition is anchored at x0, so
    a support that straddles it stays in two blocks at every scale.)
    """
    q, p, alpha = Exponent.of(q), Exponent.of(p), Exponent.of(alpha)
    if q.recip < alpha.recip or alpha.recip < p.recip:
        raise TrivialSpaceError(
            f"amalgam space is trivial unless q <= alpha <= p "
            f"(got q={q.value:g}, alpha={alpha.value:g}, p={p.value:g})")
    if alpha.recip == p.recip:
        value = lq_norm(m, f, f.support, p)
        if f.tail_bound > 0.0:
            # A nonzero tail on an unbounded measure: the tail blocks
            # add tail_bound to the sup, and infinitely much to a sum.
            value = max(value, f.tail_bound) if p.is_inf else np.inf
        return float(value), 0.0
    mass = m.mass(f.support)
    if r_grid is None:
        r_grid = default_r_grid(mass)
    r_grid = np.asarray(r_grid, float)
    expo = alpha.recip - q.recip
    table = None if q.is_inf else LqTable(m, f, q)

    def g(r: float) -> float:
        return r ** expo * block_norm(m, f, q, p, r, x0=x0, table=table)

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

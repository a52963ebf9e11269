"""Interval selection with bounded overlap, driven by mass midpoints.

Each family interval carries its mass midpoint c with mu([a,c)) =
mu([c,b)).  The selection must cover every midpoint falling in the
window, using a subfamily whose pointwise overlap stays small; the
greedy sweep below empirically never exceeds overlap 5 when the family
mass ratio is at most 4 (each selected interval eats at least half of
any later overlapping candidate's mass on one side).

Selection: repeatedly take the leftmost uncovered midpoint, select
among intervals owning that midpoint the one reaching furthest right
(ties: larger mass, then input order), mark everything it covers.
Overlap is measured exactly by an endpoint sweep; the overlap function
is piecewise constant with breakpoints only at interval endpoints, so
the sweep dominates any sample grid.

A family is held as arrays (endpoints, masses, midpoints), so building,
checking and selecting are a few vector passes over the family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import IntervalRC, RadonMeasure, make_interval

__all__ = [
    "midpoint",
    "MidpointedFamily",
    "make_family",
    "select_cover",
    "random_family",
]


def midpoint(m: RadonMeasure, I: IntervalRC) -> float:
    """The mass midpoint: mu([a,c)) = mu([c,b)) = mu(I)/2, exact through
    the inverse distribution function."""
    if not (I.mass > 0.0):
        raise ValueError(f"interval {I} has no mass to halve")
    c = float(m.inv_cdf(0.5 * (m.cdf(I.a) + m.cdf(I.b))))
    return c


@dataclass(frozen=True, eq=False)
class MidpointedFamily:
    """Intervals [a[i], b[i]) of mass mass[i] with their mass midpoints."""

    a: np.ndarray
    b: np.ndarray
    mass: np.ndarray
    midpoints: np.ndarray
    window: IntervalRC

    def __len__(self):
        return len(self.a)

    @property
    def intervals(self) -> tuple[IntervalRC, ...]:
        return tuple(IntervalRC(a, b, mass) for a, b, mass in
                     zip(self.a.tolist(), self.b.tolist(), self.mass.tolist()))


def _family(m: RadonMeasure, a, b, Fa, Fb, mass, window: IntervalRC,
            check_tol: float) -> MidpointedFamily:
    """Midpoints of [a, b) given F(a), F(b) and the masses, with
    make_family's checks; the first offending interval raises."""
    c = m.inv_cdf(0.5 * (Fa + Fb))
    left = m.cdf(c) - Fa
    no_mass = ~(mass > 0.0)
    escapes = ~((a < c) & (c < b))
    misses = np.abs(left - 0.5 * mass) > check_tol * mass
    bad = no_mass | escapes | misses
    if bad.any():
        i = int(np.argmax(bad))
        I = IntervalRC(float(a[i]), float(b[i]), float(mass[i]))
        if no_mass[i]:
            raise ValueError(f"interval {I} has no mass to halve")
        if escapes[i]:
            raise ValueError(f"midpoint {float(c[i])} escapes {I}")
        raise ValueError(f"midpoint of {I} misses half mass: {float(left[i])} "
                         f"vs {0.5 * float(mass[i])}")
    return MidpointedFamily(a, b, mass, c, window)


def make_family(m: RadonMeasure, intervals, window: IntervalRC,
                check_tol: float = 1e-9) -> MidpointedFamily:
    ivs = tuple(intervals)
    a = np.array([I.a for I in ivs], float)
    b = np.array([I.b for I in ivs], float)
    mass = np.array([I.mass for I in ivs], float)
    return _family(m, a, b, m.cdf(a), m.cdf(b), mass, window, check_tol)


def select_cover(fam: MidpointedFamily) -> tuple[list[int], int]:
    """Greedy cover of all in-window midpoints; returns (selected
    indices in selection order, exact max pointwise overlap)."""
    mids, a, b = fam.midpoints, fam.a, fam.b
    n = len(mids)
    in_window = (fam.window.a <= mids) & (mids < fam.window.b)
    covered = ~in_window          # out-of-window midpoints need no cover
    # Equal midpoints are covered together, so the first uncovered entry
    # in this order is the leftmost uncovered midpoint's best owner:
    # rightmost reach, then mass, then input order.
    order = np.lexsort((np.arange(n), -fam.mass, -b, mids))
    selected: list[int] = []
    pos = 0
    while True:
        while pos < n and covered[order[pos]]:
            pos += 1
        if pos == n:
            break
        best = int(order[pos])
        selected.append(best)
        covered |= in_window & (mids >= a[best]) & (mids < b[best])
        if not covered[best]:
            raise AssertionError("selected interval misses its own midpoint")
    a_sel, b_sel = a[selected], b[selected]
    hit = (mids[:, None] >= a_sel) & (mids[:, None] < b_sel)
    missed = in_window & ~hit.any(axis=1)
    if missed.any():
        raise AssertionError(f"midpoint {mids[np.argmax(missed)]} left uncovered")
    return selected, _max_overlap(a_sel, b_sel)


def _max_overlap(a, b) -> int:
    # close events sort before open events at equal coordinates, so
    # half-open adjacency [a,b) [b,c) never counts as overlap
    opens = np.repeat([1, 0], len(a))
    step = 2 * opens[np.lexsort((opens, np.concatenate([a, b])))] - 1
    return int(np.max(np.cumsum(step), initial=0))


def random_family(m: RadonMeasure, count: int = 40, seed: int = 0,
                  mass_range: tuple[float, float] = (0.5, 2.0),
                  center_range: tuple[float, float] = (-4.0, 4.0),
                  window_pad: float = 2.0) -> MidpointedFamily:
    """Random mass-parameterized intervals.  The default mass ratio 4
    keeps the greedy overlap within the certified bound; widening it is
    the knob for stress tests."""
    rng = np.random.default_rng(seed)
    t_c = rng.uniform(*center_range, size=count)
    mass = rng.uniform(*mass_range, size=count)
    a = m.inv_cdf(t_c - mass / 2.0)
    b = m.inv_cdf(t_c + mass / 2.0)
    bad = ~(np.isfinite(a) & np.isfinite(b) & (a < b))
    if bad.any():
        i = int(np.argmax(bad))
        IntervalRC(float(a[i]), float(b[i]))    # raises the endpoint error
    Fa, Fb = m.cdf(a), m.cdf(b)
    w_lo = float(m.inv_cdf(center_range[0] - window_pad))
    w_hi = float(m.inv_cdf(center_range[1] + window_pad))
    return _family(m, a, b, Fa, Fb, Fb - Fa, make_interval(m, w_lo, w_hi), 1e-9)

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
checking and selecting are a few vector passes over the family.  A
batch of random trials (random_family with a range of seeds) is one
family per row of (trials, count) arrays: every cdf and inv_cdf pass,
check and selection step runs once over all rows, and the results are
the trials' own, in the order one trial at a time would give them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .measure import IntervalRC, RadonMeasure, make_interval

__all__ = [
    "midpoint",
    "MidpointedFamily",
    "Trials",
    "make_family",
    "select_cover",
    "random_family",
]

# Mass by which random_family's window reaches past its centre range on
# each side, in measure coordinates.
WINDOW_PAD = 2.0


def midpoint(m: RadonMeasure, I: IntervalRC) -> float:
    """The mass midpoint: mu([a,c)) = mu([c,b)) = mu(I)/2, exact through
    the inverse distribution function."""
    if not (I.mass > 0.0):
        raise ValueError(f"interval {I} has no mass to halve")
    c = float(m.inv_cdf(0.5 * (m.cdf(I.a) + m.cdf(I.b))))
    return c


@dataclass(frozen=True, eq=False)
class MidpointedFamily:
    """Intervals [a[i], b[i]) of mass mass[i] with their mass midpoints.

    A batch of trials has one family per row of 2-D arrays.  Its error is
    the first bad trial's ValueError; that trial and the ones after it
    have no rows, and select_cover raises the error unless a trial before
    it fails its cover.  len() counts the intervals of every row."""

    a: np.ndarray
    b: np.ndarray
    mass: np.ndarray
    midpoints: np.ndarray
    window: IntervalRC
    error: ValueError | None = None

    def __len__(self):
        return self.a.size

    @property
    def intervals(self) -> tuple[IntervalRC, ...]:
        """The IntervalRC of each interval of a single family."""
        return tuple(IntervalRC(a, b, mass) for a, b, mass in
                     zip(self.a.tolist(), self.b.tolist(), self.mass.tolist()))


def _first_bad(bad: np.ndarray) -> tuple[int, tuple]:
    """(trial, index) of the first True of a family's or a batch's mask in
    trial order: the trial is 0 for a single family."""
    at = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return (int(at[0]) if bad.ndim == 2 else 0), at


def _family(m: RadonMeasure, a, b, Fa, Fb, mass, window: IntervalRC,
            check_tol: float, error: ValueError | None = None) -> MidpointedFamily:
    """Midpoints of [a, b) given F(a), F(b) and the masses, with
    make_family's checks; the first offending interval raises (in a
    batch, its trial and the later ones are dropped, see MidpointedFamily)."""
    c = m.inv_cdf(0.5 * (Fa + Fb))
    left = m.cdf(c) - Fa
    no_mass = ~(mass > 0.0)
    escapes = ~((a < c) & (c < b))
    misses = np.abs(left - 0.5 * mass) > check_tol * mass
    bad = no_mass | escapes | misses
    if bad.any():
        trial, i = _first_bad(bad)
        I = IntervalRC(float(a[i]), float(b[i]), float(mass[i]))
        if no_mass[i]:
            msg = f"interval {I} has no mass to halve"
        elif escapes[i]:
            msg = f"midpoint {float(c[i])} escapes {I}"
        else:
            msg = (f"midpoint of {I} misses half mass: {float(left[i])} "
                   f"vs {0.5 * float(mass[i])}")
        error = ValueError(msg)
        if trial == 0:     # a later trial's error waits for select_cover
            raise error
        a, b, mass, c = a[:trial], b[:trial], mass[:trial], c[:trial]
    return MidpointedFamily(a, b, mass, c, window, error)


def make_family(m: RadonMeasure, intervals, window: IntervalRC,
                check_tol: float = 1e-9) -> MidpointedFamily:
    ivs = tuple(intervals)
    a = np.array([I.a for I in ivs], float)
    b = np.array([I.b for I in ivs], float)
    mass = np.array([I.mass for I in ivs], float)
    return _family(m, a, b, m.cdf(a), m.cdf(b), mass, window, check_tol)


class Trials(NamedTuple):
    """select_cover of a batch: per trial the selected indices in
    selection order, the exact max overlap of the selected intervals and
    the failure message, None when the selection covers every in-window
    midpoint (the message a single family's select_cover raises)."""

    selected: list[list[int]]
    overlaps: list[int]
    failures: list[str | None]

    @property
    def failure(self) -> tuple[int, str] | None:
        """(trial, message) of the first trial that failed its cover."""
        return next(((t, f) for t, f in enumerate(self.failures) if f is not None),
                    None)

    @property
    def worst(self) -> int:
        """The max overlap over the trials before the first failure."""
        stop = len(self.failures) if self.failure is None else self.failure[0]
        return max(self.overlaps[:stop], default=0)


def select_cover(fam: MidpointedFamily):
    """Greedy cover of all in-window midpoints.  A single family gives
    (selected indices in selection order, exact max pointwise overlap)
    and raises AssertionError if a midpoint stays uncovered; a batch
    gives its Trials and raises its error if no trial before the bad one
    failed its cover."""
    if fam.a.ndim == 1:
        (selected,), (overlap,), (failure,) = _select(
            fam.a[None], fam.b[None], fam.mass[None], fam.midpoints[None], fam.window)
        if failure is not None:
            raise AssertionError(failure)
        return selected, overlap
    trials = _select(fam.a, fam.b, fam.mass, fam.midpoints, fam.window)
    if fam.error is not None and trials.failure is None:
        raise fam.error
    return trials


def _select(a, b, mass, mids, window: IntervalRC) -> Trials:
    """select_cover on every row of the (trials, count) arrays."""
    steps, failures = _greedy(a, b, mass, mids, window)
    overlaps, uncovered = _sweep(a, b, mids, steps)
    missed = uncovered & (window.a <= mids) & (mids < window.b)
    for t in np.flatnonzero(missed.any(axis=1)).tolist():
        if failures[t] is None:
            failures[t] = f"midpoint {mids[t, np.argmax(missed[t])]} left uncovered"
    return Trials([[i for i in row if i >= 0] for row in steps.tolist()],
                  overlaps.tolist(), failures)


def _greedy(a, b, mass, mids, window: IntervalRC):
    """The greedy on every row at once, one selection step per pass: the
    (trials, steps) selected indices, -1 once a row is covered, and each
    row's failure message.

    In sorted midpoint order the covered in-window midpoints are a
    prefix: a selected interval holds its own midpoint, the leftmost
    uncovered one, so it reaches back over the covered ones, and the next
    uncovered midpoint is the first at or past its right end.  So each
    step is one jump per row, from the selected midpoint to the one past
    its interval.  A row whose selected interval misses its own midpoint
    fails at that step."""
    trials, n = mids.shape
    rows = np.arange(trials)[:, None]
    # Equal midpoints are covered together, so the first uncovered entry
    # in this order is the leftmost uncovered midpoint's best owner:
    # rightmost reach, then mass, then input order.
    order = np.lexsort((np.broadcast_to(np.arange(n), mids.shape), -mass, -b, mids),
                       axis=-1)
    mids, a, b = (v[rows, order] for v in (mids, a, b))
    # jump[p]: the midpoints below b[p], found by sorting each right end
    # before the midpoints equal to it (at least p + 1, so a failed row
    # moves on); jump[n] = n ends a covered row.
    keys = np.concatenate([b, mids], axis=1)
    events = np.lexsort((np.broadcast_to(np.repeat([0, 1], n), keys.shape), keys),
                        axis=-1)
    below = np.empty(keys.shape, np.int64)
    below[rows, events] = np.cumsum(events >= n, axis=1)
    jump = np.concatenate([np.maximum(below[:, :n], np.arange(1, n + 1)),
                           np.full((trials, 1), n)], axis=1)
    pos, stop = ((mids < w).sum(axis=1) for w in (window.a, window.b))
    steps = []
    while (live := pos < stop).any():
        steps.append(np.where(live, pos, -1))
        pos = jump[rows[:, 0], pos]
    at = np.stack(steps, axis=1) if steps else np.full((trials, 0), -1)
    taken = at >= 0
    at = np.maximum(at, 0)
    lost = taken & ~((a[rows, at] <= mids[rows, at]) & (mids[rows, at] < b[rows, at]))
    failures: list[str | None] = [None] * trials
    for t in np.flatnonzero(lost.any(axis=1)).tolist():
        failures[t] = "selected interval misses its own midpoint"
        taken[t, np.argmax(lost[t]) + 1:] = False
    return np.where(taken, order[rows, at], -1), failures


def _sweep(a, b, mids, steps):
    """One endpoint sweep over every row: the exact max overlap of each
    row's selected intervals, and which midpoints none of them covers.
    Unselected intervals step by 0.  Close events sort before open events
    at equal coordinates, so half-open adjacency [a,b) [b,c) never counts
    as overlap, and a midpoint sorts after both, so it counts exactly the
    intervals with a <= c < b."""
    trials, n = a.shape
    rows = np.arange(trials)[:, None]
    sel = np.zeros((trials, n + 1), np.int64)
    sel[rows, steps] = 1               # a padding -1 marks the spare last column
    sel = sel[:, :n]
    where = np.concatenate([a, b, mids], axis=1)
    kind = np.broadcast_to(np.repeat([1, 0, 2], n), where.shape)
    order = np.lexsort((kind, where), axis=-1)
    step = np.concatenate([sel, -sel, np.zeros_like(sel)], axis=1)
    depth = np.cumsum(step[rows, order], axis=-1)
    at = np.empty_like(depth)
    at[rows, order] = depth
    return np.max(depth, axis=-1, initial=0), at[:, 2 * n:] == 0


def random_family(m: RadonMeasure, count: int = 40, seed: int | range = 0,
                  mass_range: tuple[float, float] = (0.5, 2.0),
                  center_range: tuple[float, float] = (-4.0, 4.0)) -> MidpointedFamily:
    """Random mass-parameterized intervals.  The default mass ratio 4
    keeps the greedy overlap within the certified bound; widening it is
    the knob for stress tests.

    A range of seeds gives a batch of trials, one row per seed, each drawn
    by its own default_rng(seed) in the order a single family draws; the
    F and F^-1 passes, the checks and the window are made once for all
    rows."""
    seeds = seed if isinstance(seed, range) else [seed]
    t_c, mass = [], []
    for s in seeds:
        rng = np.random.default_rng(s)
        t_c.append(rng.uniform(*center_range, size=count))
        mass.append(rng.uniform(*mass_range, size=count))
    t_c, mass = (np.array(v, float).reshape(len(seeds), count) for v in (t_c, mass))
    a = m.inv_cdf(t_c - mass / 2.0)
    b = m.inv_cdf(t_c + mass / 2.0)
    bad = ~(np.isfinite(a) & np.isfinite(b) & (a < b))
    error = None
    if bad.any():
        trial, i = _first_bad(bad)
        try:
            IntervalRC(float(a[i]), float(b[i]))    # raises the endpoint error
        except ValueError as e:
            if trial == 0:
                raise
            error = e
        a, b = a[:trial], b[:trial]
    Fa, Fb = m.cdf(a), m.cdf(b)
    w_lo = float(m.inv_cdf(center_range[0] - WINDOW_PAD))
    w_hi = float(m.inv_cdf(center_range[1] + WINDOW_PAD))
    fam = _family(m, a, b, Fa, Fb, Fb - Fa, make_interval(m, w_lo, w_hi), 1e-9, error)
    if isinstance(seed, range):
        return fam
    return MidpointedFamily(fam.a[0], fam.b[0], fam.mass[0], fam.midpoints[0], fam.window)

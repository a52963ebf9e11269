"""Muckenhoupt-type interval conditions for weights against a measure mu.

Every condition here is a supremum over intervals; the artifact scans a
finite, declared interval family, so reported constants are certified
lower bounds of the true sup.  Divergence ("the sup is infinite") is
operationalized two ways: an interval whose defining integral diverges
pushes the constant to inf, and growth of the per-scale maxima without
saturation sets the `diverging` flag.

A family of intervals is held as arrays of ends and masses, as
covering's families are; an IntervalRC is built from them only where one
is asked for (the argmax, a sampled interval, iteration).

The interval integrals come from one table per factor (w, w^-e, v^theta
and so on): the interval ends and the singular points and breakpoints of
the factor cut the line into cells, each cell is integrated once, and
each interval sums its cells (measure._interval_integrals).  A cell
whose integral diverges makes exactly the intervals containing it
infinite.

Subset-based checks (reverse Holder, the epsilon-delta form of A_inf)
draw E as unions of at most four subintervals of I, with mass fractions
stratified so both the small-subset and whole-interval regimes appear.
All sampling is deterministic given the sampler seed; every subset is
drawn before the one table that serves all of them is built.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .functions import RealFunction, power_function, table_function
from .measure import (IntervalRC, QuadratureError, RadonMeasure,
                      _interval_integrals, _with_mass, make_interval, partition)
from .norms import Exponent

__all__ = [
    "Weight",
    "make_weight",
    "WeightConditionResult",
    "IntervalFamily",
    "default_interval_family",
    "a_r_constant",
    "thm21_condition",
    "SubsetSampler",
    "reverse_holder_check",
    "a_infty_epsilon_delta",
]

_BIG = 1e15
MAX_PIECES = 4      # subintervals of I that a sampled E joins, at most


@dataclass(frozen=True)
class Weight:
    """A weight plus the ability to form |w|^e with declared structure."""

    fn: RealFunction
    spec: dict

    def powered(self, e: float) -> RealFunction:
        if e == 1.0:
            return self.fn
        kind = self.spec["kind"]
        if kind == "one":
            return replace(power_function(0.0, (-_BIG, _BIG)), label="1")
        if kind == "power":
            return power_function(self.spec["b"] * e, (-_BIG, _BIG))
        w = self.fn

        def ev(x):
            with np.errstate(divide="ignore"):
                return np.abs(np.asarray(w(x), float)) ** e

        zeros = self.spec.get("zeros", ())
        sing = tuple(w.singularities) + (tuple(zeros) if e < 0 else ())
        return replace(w, eval=ev, label=f"{w.label}^{e:g}", levels=None,
                       singularities=sing)


def make_weight(spec: dict) -> Weight:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("weight spec must be a dict with a 'kind' field")
    kind = spec["kind"]
    if kind == "one":
        return Weight(replace(power_function(0.0, (-_BIG, _BIG)), label="1"),
                      {"kind": "one"})
    if kind == "power":
        b = float(spec["b"])
        return Weight(power_function(b, (-_BIG, _BIG)), {"kind": "power", "b": b})
    if kind == "table":
        pts = np.asarray(spec["points"], float)
        fn = table_function(pts)
        zeros = tuple(float(x) for x, y in pts if y == 0.0)
        return Weight(fn, {"kind": "table", "points": pts.tolist(),
                           "zeros": zeros})
    raise ValueError(f"unknown weight kind {kind!r}")


def _as_weight(w) -> Weight:
    if isinstance(w, Weight):
        return w
    # Bare function: conservatively treat its breakpoints as potential
    # zeros when negative powers are formed.
    return Weight(w, {"kind": "table?", "zeros": tuple(w.breakpoints)})


@dataclass(frozen=True)
class WeightConditionResult:
    constant: float
    argmax_interval: IntervalRC | None
    interval_count: int
    diverging: bool
    per_level: tuple[tuple[float, float], ...]  # (mass scale, max value)

    def __repr__(self):
        flag = " diverging" if self.diverging else ""
        return (f"WeightConditionResult({self.constant:.6g} over "
                f"{self.interval_count} intervals{flag})")


@dataclass(frozen=True, eq=False)
class IntervalFamily(Sequence):
    """Intervals [a[i], b[i]) of mass mass[i], held as arrays.

    Indexing and iteration give IntervalRCs: the ones the family was made
    of (given), else built from the arrays' floats on demand.  A slice is
    a family; adding a sequence gives a list of IntervalRCs."""

    a: np.ndarray
    b: np.ndarray
    mass: np.ndarray
    given: tuple[IntervalRC, ...] | None = None

    @classmethod
    def of(cls, m: RadonMeasure, intervals) -> IntervalFamily:
        """The family of a sequence of IntervalRCs; one that caches no
        mass takes F(b) - F(a), as make_interval does."""
        ivs = tuple(_with_mass(m, I) for I in intervals)
        a, b, mass = (np.array([getattr(I, k) for I in ivs], float)
                      for k in ("a", "b", "mass"))
        return cls(a, b, mass, ivs)

    def __len__(self):
        return self.a.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            given = None if self.given is None else self.given[i]
            return IntervalFamily(self.a[i], self.b[i], self.mass[i], given)
        if self.given is not None:
            return self.given[i]
        return IntervalRC(float(self.a[i]), float(self.b[i]), float(self.mass[i]))

    def __add__(self, other):
        return [*self, *other]


def _as_family(m: RadonMeasure, family) -> IntervalFamily:
    """The family to scan: default_interval_family(m) for None, else
    family as an IntervalFamily."""
    if family is None:
        return default_interval_family(m)
    if isinstance(family, IntervalFamily):
        return family
    return IntervalFamily.of(m, family)


def _check_ends(a: list[float], b: list[float]) -> None:
    """IntervalRC's error for the first interval [a[i], b[i]) whose ends
    are not finite with a[i] < b[i]."""
    a, b = np.array(a, float), np.array(b, float)
    bad = ~(np.isfinite(a) & np.isfinite(b) & (a < b))
    if bad.any():
        i = int(np.argmax(bad))
        IntervalRC(float(a[i]), float(b[i]))


def default_interval_family(m: RadonMeasure, span_mass: float = 32.0,
                            centers: int = 32, scales: int = 8,
                            x0: float = 0.0) -> IntervalFamily:
    """Dyadic-in-mass intervals at spread centers, plus unions of
    partition blocks anchored at x0 (these keep 0 as an endpoint)."""
    half = span_mass / 2.0
    t0 = m.cdf(x0)
    # Python floats: their arithmetic is cheaper than numpy scalars'.
    t_centers = (t0 + np.linspace(-half, half, centers)).tolist()
    masses = (span_mass / 2.0 ** np.arange(scales)).tolist()
    a, b, mass = [], [], []
    for tc in t_centers:
        for s in masses:
            lo, hi = m.inv_cdf(tc - s / 2.0), m.inv_cdf(tc + s / 2.0)
            a.append(lo)
            b.append(hi)
            mass.append(m.cdf(hi) - m.cdf(lo))    # make_interval's mass
    _check_ends(a, b)
    lo_edge = m.inv_cdf(t0 - half)
    hi_edge = m.inv_cdf(t0 + half)
    part = partition(m, x0, 1.0, IntervalRC(float(lo_edge), float(hi_edge)))
    edges = part.breakpoints.tolist()
    t_edges = np.array([m.cdf(x) for x in edges])   # F once per edge, as make_interval takes it
    n = len(a)
    for width in (1, 2, 4, 8):
        a += edges[:-width]
        b += edges[width:]
        mass += (t_edges[width:] - t_edges[:-width]).tolist()
    _check_ends(a[n:], b[n:])
    return IntervalFamily(*(np.array(v, float) for v in (a, b, mass)))


def _t_ends(m: RadonMeasure, family: IntervalFamily
            ) -> tuple[np.ndarray, np.ndarray]:
    """F at the left and at the right ends of the family's intervals."""
    if len(family) == 0:
        raise ValueError("interval family is empty")
    return m.cdf(family.a), m.cdf(family.b)


def _check_positive(m: RadonMeasure, w: RealFunction,
                    t_a: np.ndarray, t_b: np.ndarray) -> None:
    t_lo, t_hi = float(t_a.min()), float(t_b.max())
    ts = t_lo + (t_hi - t_lo) * (np.arange(2048) + 0.5) / 2048.0
    vals = np.asarray(w(m.inv_cdf(ts)), float)
    if np.any(vals < 0):
        raise ValueError("weight must be nonnegative on the scanned window")
    if np.mean(vals == 0.0) > 0.01:
        raise ValueError("weight vanishes on part of the scanned window")


def _averages(m: RadonMeasure, g: RealFunction, t_a: np.ndarray,
              t_b: np.ndarray) -> np.ndarray:
    """Average of g over each interval, +inf where its integral diverges."""
    return _interval_integrals(m, g, t_a, t_b) / (t_b - t_a)


def _ess_sups(m: RadonMeasure, g, family: IntervalFamily,
              n: int = 257) -> np.ndarray:
    """Sampled essential sup of g over each interval: the max at n
    midpoints.  The ends take F one at a time, so the points are those
    of the interval alone (F of an array may round apart in the last
    place)."""
    t_a, t_b = (np.array([m.cdf(x) for x in ends.tolist()])[:, None]
                for ends in (family.a, family.b))
    ts = t_a + (t_b - t_a) * (np.arange(n) + 0.5) / n
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.asarray(g(m.inv_cdf(ts.ravel())), float)
    return np.max(vals.reshape(ts.shape), axis=1)


def _product(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Per-interval product of the two factors; 0 * inf (the weight
    vanishes where its negative power diverges) counts as inf."""
    with np.errstate(invalid="ignore"):
        out = first * second
    return np.where(np.isnan(out), np.inf, out)


def _scan(family: IntervalFamily, values: np.ndarray) -> WeightConditionResult:
    """The sup over a nonempty family and its maximum per mass level
    2^k, k the nearest integer to log2(mass).  NaN values are skipped,
    the first interval of the greatest value is the argmax, and there is
    none when every value is -inf or NaN."""
    keys, level = np.unique(np.rint(np.log2(family.mass)),
                            return_inverse=True)
    maxima = np.full(keys.size, -np.inf)
    np.fmax.at(maxima, level, values)
    per_level = tuple(zip([2.0 ** k for k in keys.astype(int).tolist()], maxima.tolist()))
    vals = np.where(np.isnan(values), -np.inf, values)
    i = int(np.argmax(vals))
    best = float(vals[i])
    best_I = family[i] if best > -np.inf else None
    diverging = not np.isfinite(best)
    if not diverging and len(per_level) >= 2:
        prev, last = per_level[-2][1], per_level[-1][1]
        diverging = last > 1.2 * prev
    return WeightConditionResult(best, best_I, len(family), diverging, per_level)


def _two_factor(m: RadonMeasure, wgt: Weight, family: IntervalFamily,
                inv_theta: float, gap: float) -> WeightConditionResult:
    """sup over the family of (avg_I w^theta)^(1/theta) *
    (avg_I w^(-1/gap))^gap, 1/theta = inv_theta; at gap = 0 the second
    factor is the sampled essential sup of w^(-1)."""
    t_a, t_b = _t_ends(m, family)
    _check_positive(m, wgt.fn, t_a, t_b)
    first = _averages(m, wgt.powered(1.0 / inv_theta), t_a, t_b) ** inv_theta
    if gap == 0.0:
        second = _ess_sups(m, wgt.powered(-1.0), family)
    else:
        second = _averages(m, wgt.powered(-1.0 / gap), t_a, t_b) ** gap
    return _scan(family, _product(first, second))


def a_r_constant(m: RadonMeasure, w, r,
                 interval_family: Sequence[IntervalRC] | None = None
                 ) -> WeightConditionResult:
    """sup over the family of (avg_I w) * (avg_I w^(-1/(r-1)))^(r-1).

    The r = 1 branch pairs the average with the sampled essential sup of
    w^(-1); the formula with w itself in the second factor would make
    the condition fail for every unbounded weight, including constants'
    perturbations, and is incompatible with the r > 1 family.
    """
    wgt = _as_weight(w)
    r = Exponent.of(r)
    if r.is_inf:
        raise ValueError("a_r_constant needs finite r >= 1")
    return _two_factor(m, wgt, _as_family(m, interval_family), 1.0, r.value - 1.0)


def thm21_condition(m: RadonMeasure, v, q, q1, beta,
                    interval_family: Sequence[IntervalRC] | None = None
                    ) -> WeightConditionResult:
    """Two-factor interval condition coupling v^theta with a negative
    power of v, where 1/theta = 1/q1 - 1/beta > 0.

    For q < q1 the second factor is (avg_I v^(-q1 q/(q1-q)))^((q1-q)/(q1 q));
    at q = q1 it degenerates to the essential sup of v^(-1).
    """
    vw = _as_weight(v)
    q, q1, beta = Exponent.of(q), Exponent.of(q1), Exponent.of(beta)
    if q.recip < q1.recip:
        raise ValueError("need q <= q1")
    inv_theta = q1.recip - beta.recip
    if inv_theta <= 0:
        raise ValueError("need 1/q1 - 1/beta > 0")
    return _two_factor(m, vw, _as_family(m, interval_family), inv_theta,
                       q.recip - q1.recip)


@dataclass(frozen=True)
class SubsetSampler:
    """Draws E subset I as a union of up to MAX_PIECES subintervals with
    a prescribed mass fraction; deterministic given the seed."""

    seed: int = 0
    strata: tuple[float, ...] = (0.01, 0.03, 0.07, 0.15, 0.3, 0.5, 0.7, 0.9)
    draws_per_stratum: int = 2

    def pairs(self, m: RadonMeasure, I: IntervalRC):
        """Yields (E_pieces, mass_fraction) with exact-by-construction
        fractions in measure coordinates."""
        rng = np.random.default_rng(self.seed)
        t_a, t_b = m.cdf(I.a), m.cdf(I.b)
        L = t_b - t_a
        for s in self.strata:
            for _ in range(self.draws_per_stratum):
                if s >= 1.0:
                    yield [I], 1.0
                    continue
                k = int(rng.integers(1, MAX_PIECES + 1))
                sizes = s * L * rng.dirichlet(np.ones(k))
                gaps = (1.0 - s) * L * rng.dirichlet(np.ones(k + 1))
                pieces = []
                t = t_a
                for j in range(k):
                    t += gaps[j]
                    lo, hi = t, t + sizes[j]
                    pieces.append(make_interval(
                        m, float(m.inv_cdf(lo)), float(m.inv_cdf(hi))))
                    t = hi
                yield pieces, float(np.sum(sizes) / L)


def _subset_ratios(m: RadonMeasure, w: RealFunction,
                   family: IntervalFamily, sampler: SubsetSampler,
                   max_intervals: int = 12):
    """(mu(E)/mu(I), w(E)/w(I)) over the sampled pairs: every E is drawn
    first, then all the w-masses come from one table of cells."""
    stride = max(1, len(family) // max_intervals)
    draws = []
    for idx in range(0, len(family), stride):
        sub = replace(sampler, seed=sampler.seed + idx)
        draws.append((family[idx], [(pieces, frac) for pieces, frac
                                     in sub.pairs(m, family[idx]) if frac > 0]))
    spans = [J for I, pairs in draws
             for J in [I, *(p for pieces, _ in pairs for p in pieces)]]
    masses = _interval_integrals(m, w, *_t_ends(m, IntervalFamily.of(m, spans)))
    if not np.all(np.isfinite(masses)):
        raise QuadratureError("weight integral diverges on a sampled interval",
                              estimate=np.inf, error_bound=np.inf)
    it = iter(masses.tolist())
    out = []
    for I, pairs in draws:
        w_I = next(it)
        w_E = [sum(next(it) for _ in pieces) for pieces, _ in pairs]
        if w_I > 0:
            out += [(frac, w_e / w_I) for (_, frac), w_e in zip(pairs, w_E)]
    return out


def reverse_holder_check(m: RadonMeasure, w,
                         interval_family: Sequence[IntervalRC] | None = None,
                         subset_sampler: SubsetSampler | None = None
                         ) -> tuple[float, float, int]:
    """Fit w(E)/w(I) <= C (mu(E)/mu(I))^delta and re-test the slightly
    relaxed bound (1.05 C, 0.95 delta) on a fresh sample.

    Returns (C, delta, violations); violations counts re-test failures.
    delta is clamped into (0, 1]: taking E = I forces equality at
    fraction 1, so any fitted slope above 1 is stratification noise.
    """
    wgt = _as_weight(w)
    interval_family = _as_family(m, interval_family)
    if subset_sampler is None:
        subset_sampler = SubsetSampler(seed=0)
    _check_positive(m, wgt.fn, *_t_ends(m, interval_family))
    data = _subset_ratios(m, wgt.fn, interval_family, subset_sampler)
    xs = np.log([s for s, _ in data])
    ys = np.log([t for _, t in data])
    delta = float(np.polyfit(xs, ys, 1)[0])
    delta = min(max(delta, 1e-6), 1.0)
    C = float(np.exp(np.max(ys - delta * xs)))
    fresh = replace(subset_sampler, seed=subset_sampler.seed + 10_000)
    retest = _subset_ratios(m, wgt.fn, interval_family, fresh)
    violations = sum(1 for s, t in retest
                     if t > 1.05 * C * s ** (0.95 * delta))
    return C, delta, violations


def a_infty_epsilon_delta(m: RadonMeasure, w, eps: float,
                          interval_family: Sequence[IntervalRC] | None = None,
                          subset_sampler: SubsetSampler | None = None
                          ) -> float:
    """Largest sampled delta-hat such that every sampled pair with
    mu(E) <= delta-hat mu(I) had w(E) <= eps w(I)."""
    if not (0.0 < eps):
        raise ValueError("eps must be positive")
    wgt = _as_weight(w)
    interval_family = _as_family(m, interval_family)
    if subset_sampler is None:
        subset_sampler = SubsetSampler(
            seed=0, strata=(0.01, 0.03, 0.07, 0.15, 0.3, 0.5, 0.7, 0.9, 1.0))
    _check_positive(m, wgt.fn, *_t_ends(m, interval_family))
    data = sorted(_subset_ratios(m, wgt.fn, interval_family, subset_sampler))
    slack = 1.0 + 1e-9   # fp noise on exact-ratio weights like w = 1
    delta_hat = 0.0
    for s, t in data:
        if t > eps * slack:
            break
        delta_hat = s
    return delta_hat

"""Mass midpoints, greedy cover selection, overlap certification."""

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from amalgam import cli, harness
from amalgam.covering import (MidpointedFamily, Trials, _family, make_family,
                              midpoint, random_family, select_cover)
from amalgam.measure import (
    IntervalRC,
    custom_measure,
    lebesgue,
    make_interval,
    power_measure,
)

LEB = lebesgue()
CUSTOM = custom_measure([[-2.0, 0.5], [-1.0, 1.0], [0.0, 2.0], [1.0, 1.0],
                         [2.0, 0.5]], 0.5, 0.5)


def test_midpoint_lebesgue():
    assert midpoint(LEB, make_interval(LEB, 0.0, 2.0)) == pytest.approx(1.0, abs=1e-12)
    assert midpoint(LEB, make_interval(LEB, -1.0, 3.0)) == pytest.approx(1.0, abs=1e-12)


def test_midpoint_power():
    m = power_measure(0.5)
    assert midpoint(m, make_interval(m, 0.0, 1.0)) == pytest.approx(0.25, abs=1e-10)


def test_midpoint_rejects_zero_mass():
    with pytest.raises(ValueError):
        midpoint(LEB, IntervalRC(0.0, 1.0, mass=0.0))


@pytest.mark.parametrize("m", [LEB, power_measure(0.5), CUSTOM],
                         ids=lambda m: m.kind)
def test_family_halves_mass(m):
    ivs = [make_interval(m, a, b) for a, b in [(-2.0, 0.5), (0.1, 1.7), (-4.0, 3.0)]]
    fam = make_family(m, ivs, make_interval(m, -5.0, 5.0))
    for iv, c in zip(fam.intervals, fam.midpoints):
        assert iv.a < c < iv.b
        left = make_interval(m, iv.a, c).mass
        assert left == pytest.approx(0.5 * iv.mass, rel=1e-9)


def test_select_single_interval():
    fam = make_family(LEB, [make_interval(LEB, 0.0, 1.0)],
                      make_interval(LEB, -2.0, 2.0))
    selected, overlap = select_cover(fam)
    assert selected == [0]
    assert overlap == 1


def test_select_disjoint_intervals():
    ivs = [make_interval(LEB, float(i), i + 0.8) for i in range(5)]
    fam = make_family(LEB, ivs, make_interval(LEB, -1.0, 6.0))
    selected, overlap = select_cover(fam)
    assert sorted(selected) == [0, 1, 2, 3, 4]
    assert overlap == 1


def test_select_ignores_midpoints_outside_window():
    ivs = [make_interval(LEB, 0.0, 1.0), make_interval(LEB, 10.0, 11.0)]
    fam = make_family(LEB, ivs, make_interval(LEB, -2.0, 2.0))
    selected, _ = select_cover(fam)
    assert selected == [0]


def coverage_holds(fam, selected):
    ivs = fam.intervals
    chosen = [ivs[i] for i in selected]
    for c in fam.midpoints:
        if fam.window.a <= c < fam.window.b:
            if not any(iv.a <= c < iv.b for iv in chosen):
                return False
    return True


@pytest.mark.parametrize("m", [LEB, power_measure(0.5)], ids=lambda m: m.kind)
def test_random_trials(m):
    for trial in range(200):
        fam = random_family(m, count=40, seed=trial)
        selected, overlap = select_cover(fam)
        assert coverage_holds(fam, selected)
        assert overlap <= 5


def test_select_deterministic():
    fam = random_family(LEB, count=30, seed=123)
    s1, o1 = select_cover(fam)
    s2, o2 = select_cover(fam)
    assert s1 == s2 and o1 == o2


def test_overlap_matches_brute_force():
    rng = np.random.default_rng(7)
    for seed in (0, 4, 9):
        fam = random_family(LEB, count=25, seed=seed)
        selected, overlap = select_cover(fam)
        ivs = fam.intervals
        chosen = [ivs[i] for i in selected]
        probes = np.concatenate([
            rng.uniform(fam.window.a, fam.window.b, size=10_000),
            [iv.a for iv in chosen], [iv.b - 1e-12 for iv in chosen]])
        counts = np.zeros(probes.shape, dtype=int)
        for iv in chosen:
            counts += (probes >= iv.a) & (probes < iv.b)
        brute = int(np.max(counts)) if len(chosen) else 0
        assert brute <= overlap <= 5


@settings(max_examples=40, deadline=None)
@given(count=st.integers(1, 25), seed=st.integers(0, 10_000))
def test_random_family_property(count, seed):
    fam = random_family(LEB, count=count, seed=seed)
    selected, overlap = select_cover(fam)
    assert coverage_holds(fam, selected)
    assert 1 <= overlap <= 5
    assert len(set(selected)) == len(selected)


# --- the scalar covering code the array version replaced, kept as the
# reference: one interval at a time, through scalar cdf/inv_cdf calls


@dataclass(frozen=True)
class _RefFamily:
    intervals: tuple
    midpoints: tuple
    window: IntervalRC


def _ref_make_family(m, intervals, window, check_tol=1e-9):
    ivs = tuple(intervals)
    mids = []
    for I in ivs:
        c = midpoint(m, I)
        if not (I.a < c < I.b):
            raise ValueError(f"midpoint {c} escapes {I}")
        left = m.mass(IntervalRC(I.a, c))
        if abs(left - 0.5 * I.mass) > check_tol * I.mass:
            raise ValueError(f"midpoint of {I} misses half mass: {left} "
                             f"vs {0.5 * I.mass}")
        mids.append(c)
    return _RefFamily(ivs, tuple(mids), window)


def _ref_select_cover(fam):
    mids = np.asarray(fam.midpoints)
    n = len(mids)
    in_window = np.array([fam.window.contains(c) for c in mids])
    covered = ~in_window
    order = np.lexsort((np.arange(n), mids))
    selected = []
    pos = 0
    while True:
        while pos < n and covered[order[pos]]:
            pos += 1
        if pos == n:
            break
        c = mids[order[pos]]
        owners = np.flatnonzero(mids == c)
        best = min(owners, key=lambda i: (-fam.intervals[i].b,
                                          -fam.intervals[i].mass, i))
        selected.append(int(best))
        I = fam.intervals[best]
        covered |= in_window & (mids >= I.a) & (mids < I.b)
        if not covered[order[pos]]:
            raise AssertionError("selected interval misses its own midpoint")
    for i in range(n):
        if in_window[i] and not any(fam.intervals[j].contains(mids[i])
                                    for j in selected):
            raise AssertionError(f"midpoint {mids[i]} left uncovered")
    return selected, _ref_max_overlap([fam.intervals[j] for j in selected])


def _ref_max_overlap(intervals):
    if not intervals:
        return 0
    events = []
    for I in intervals:
        events.append((I.a, 1, 1))
        events.append((I.b, 0, -1))
    events.sort(key=lambda e: (e[0], e[1]))
    best = cur = 0
    for _, _, d in events:
        cur += d
        best = max(best, cur)
    return best


def _ref_random_family(m, count=40, seed=0, mass_range=(0.5, 2.0),
                       center_range=(-4.0, 4.0), window_pad=2.0):
    rng = np.random.default_rng(seed)
    t_c = rng.uniform(*center_range, size=count)
    mass = rng.uniform(*mass_range, size=count)
    ivs = []
    for tc, ms in zip(t_c, mass):
        a = float(m.inv_cdf(tc - ms / 2.0))
        b = float(m.inv_cdf(tc + ms / 2.0))
        ivs.append(make_interval(m, a, b))
    w_lo = float(m.inv_cdf(center_range[0] - window_pad))
    w_hi = float(m.inv_cdf(center_range[1] + window_pad))
    return _ref_make_family(m, ivs, make_interval(m, w_lo, w_hi))


def _within_ulp(got, want):
    want = np.asarray(want)
    return bool(np.all((np.nextafter(want, -np.inf) <= got)
                       & (got <= np.nextafter(want, np.inf))))


@pytest.mark.parametrize("mass_range", [(0.5, 2.0), (1 / 16, 16.0)],
                         ids=["ratio4", "ratio256"])
@pytest.mark.parametrize("m", [LEB, power_measure(0.3), power_measure(0.5),
                               power_measure(0.9), CUSTOM],
                         ids=["lebesgue", "power0.3", "power0.5", "power0.9",
                              "custom"])
def test_random_family_matches_reference(m, mass_range):
    # Array ** can round apart from scalar ** in the last place (the power
    # measure's F and F^-1, the custom measure's tails), so an endpoint
    # may move by one ulp.  Mass and midpoint come from F(a) and F(b), so
    # they are compared in the measure coordinate, to a few ulps of the
    # larger |F| (the mean of F(a) and F(b) cancels near x = 0, where F^-1
    # may move the midpoint by hundreds of its own ulps).  The selection
    # and the overlap may not move.
    exact = m.kind == "lebesgue"
    for seed in range(300):
        fam = random_family(m, seed=seed, mass_range=mass_range)
        ref = _ref_random_family(m, seed=seed, mass_range=mass_range)
        assert select_cover(fam) == _ref_select_cover(ref), seed
        assert fam.window == ref.window
        a = [I.a for I in ref.intervals]
        b = [I.b for I in ref.intervals]
        mass = [I.mass for I in ref.intervals]
        if exact:
            assert np.array_equal(fam.a, a) and np.array_equal(fam.b, b), seed
            assert np.array_equal(fam.mass, mass), seed
            assert np.array_equal(fam.midpoints, ref.midpoints), seed
            continue
        assert _within_ulp(fam.a, a) and _within_ulp(fam.b, b), seed
        scale = 4 * np.finfo(float).eps * np.maximum(np.abs(m.cdf(a)), np.abs(m.cdf(b)))
        assert np.all(np.abs(fam.mass - mass) <= scale), seed
        shift = np.abs(m.cdf(fam.midpoints) - m.cdf(np.array(ref.midpoints)))
        assert np.all(shift <= scale), seed


def test_family_keeps_length_and_intervals():
    fam = random_family(LEB, count=25, seed=3)
    ref = _ref_random_family(LEB, count=25, seed=3)
    assert len(fam) == 25
    assert fam.intervals == ref.intervals
    assert all(type(v) is float for I in fam.intervals for v in (I.a, I.b, I.mass))


@pytest.mark.parametrize("ivs", [
    [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)],          # half-open adjacency
    [(0.0, 2.0), (-1.0, 3.0), (-1.0, 3.0)],        # one midpoint, three owners
    [(0.0, 4.0), (0.5, 1.0), (3.0, 3.5), (5.0, 6.0)],
], ids=["adjacent", "tied_owners", "nested"])
def test_select_cover_matches_reference_by_hand(ivs):
    ivs = [make_interval(LEB, a, b) for a, b in ivs]
    window = make_interval(LEB, -1.0, 5.5)
    got = select_cover(make_family(LEB, ivs, window))
    assert got == _ref_select_cover(_ref_make_family(LEB, ivs, window))


@pytest.mark.parametrize("bad, match", [
    (IntervalRC(2.0, 3.0, mass=0.0), "has no mass to halve"),
    (make_interval(LEB, 1.0, float(np.nextafter(1.0, 2.0))), "escapes"),
    (IntervalRC(0.0, 2.0, mass=4.0), "misses half mass"),
], ids=["zero_mass", "escapes", "half_mass"])
def test_make_family_raises_like_reference(bad, match):
    # the first offending interval raises; the last one would fail an
    # earlier check
    ivs = [make_interval(LEB, -3.0, -2.0), bad, IntervalRC(4.0, 5.0, mass=0.0)]
    window = make_interval(LEB, -5.0, 5.0)
    with pytest.raises(ValueError, match=match) as got:
        make_family(LEB, ivs, window)
    with pytest.raises(ValueError) as want:
        _ref_make_family(LEB, ivs, window)
    assert str(got.value) == str(want.value)


def test_random_family_endpoint_error_matches_reference():
    # masses far below the spacing of doubles at the centers: a == b
    kw = dict(count=5, seed=1, mass_range=(1e-300, 1e-300))
    with pytest.raises(ValueError, match="need a < b") as got:
        random_family(LEB, **kw)
    with pytest.raises(ValueError) as want:
        _ref_random_family(LEB, **kw)
    assert str(got.value) == str(want.value)


# --- batches of trials: random_family over a range of seeds, one row
# per trial, against the one-family-at-a-time reference above


def _ref_trials(m, seeds, **kw):
    """(selected, overlap) per trial up to the first bad family, and that
    family's error message (None if every family is good)."""
    out = []
    for seed in seeds:
        try:
            ref = _ref_random_family(m, seed=seed, **kw)
        except ValueError as e:
            return out, str(e)
        out.append(_ref_select_cover(ref))
    return out, None


@pytest.mark.parametrize("mass_range", [(0.5, 2.0), (0.1, 3.0)], ids=["ratio4", "ratio30"])
@pytest.mark.parametrize("m", [LEB, power_measure(0.2), power_measure(0.5), CUSTOM],
                         ids=["lebesgue", "power0.2", "power0.5", "custom"])
def test_batch_matches_reference(m, mass_range):
    seeds = range(1000, 1400)
    for count in (1, 5, 25, 40):
        kw = dict(count=count, mass_range=mass_range)
        fam = random_family(m, seed=seeds, **kw)
        assert fam.a.shape == (len(seeds), count) and len(fam) == len(seeds) * count
        got = select_cover(fam)
        want, error = _ref_trials(m, seeds, **kw)
        assert error is None
        assert got.failures == [None] * len(seeds) and got.failure is None
        assert got.selected == [s for s, _ in want]
        assert got.overlaps == [o for _, o in want]
        assert got.worst == max(o for _, o in want)
        # each row is the single family of its seed, bit for bit
        for t in (0, 1, 199, 399):
            one = random_family(m, seed=seeds[t], **kw)
            for name in ("a", "b", "mass", "midpoints"):
                assert np.array_equal(getattr(fam, name)[t], getattr(one, name)), (t, name)
            assert one.window == fam.window


def test_batch_bad_family_raises_at_its_trial():
    # masses below half the double spacing at |t| >= 2 collapse an
    # interval there: seeds 0-2 give good one-interval families, seed 3
    # the first bad one
    kw = dict(count=1, mass_range=(3e-16, 3e-16))
    want, error = _ref_trials(LEB, range(12), **kw)
    assert len(want) == 3 and "need a < b" in error
    fam = random_family(LEB, seed=range(12), **kw)
    assert fam.a.shape == (3, 1) and str(fam.error) == error
    with pytest.raises(ValueError) as got:
        select_cover(fam)
    assert str(got.value) == error
    # a bad first trial raises at once, as a single family does
    with pytest.raises(ValueError, match="need a < b"):
        random_family(LEB, seed=range(3, 12), **kw)


def test_batch_family_check_keeps_the_rows_before_the_bad_trial():
    a = np.array([[0.0, 2.0], [0.0, 2.0], [0.0, 2.0]])
    b = a + 1.0
    mass = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    window = make_interval(LEB, -5.0, 5.0)
    fam = _family(LEB, a, b, a, b, mass, window, 1e-9)
    assert fam.a.shape == (2, 2)
    assert str(fam.error) == "interval IntervalRC(a=2.0, b=3.0, mass=0.0) has no mass to halve"
    with pytest.raises(ValueError, match="no mass to halve"):
        _family(LEB, a[::-1], b[::-1], a[::-1], b[::-1], mass[::-1], window, 1e-9)


def _failing_batch(error):
    """Three trials; trial 1's interval does not hold its own midpoint,
    which no checked family allows, so its cover fails."""
    a = np.array([[0.0], [0.0], [0.0]])
    mids = np.array([[0.5], [2.0], [0.5]])
    return MidpointedFamily(a, a + 1.0, a + 1.0, mids, make_interval(LEB, -5.0, 5.0),
                            error)


def test_batch_cover_failure_before_a_bad_family_wins():
    got = select_cover(_failing_batch(ValueError("trial 3 is bad")))
    msg = "selected interval misses its own midpoint"
    assert got == Trials([[0], [0], [0]], [1, 1, 1], [None, msg, None])
    assert got.failure == (1, msg) and got.worst == 1
    # the single family of the failing trial raises the same message,
    # as the reference does
    one = MidpointedFamily(np.array([0.0]), np.array([1.0]), np.array([1.0]),
                           np.array([2.0]), make_interval(LEB, -5.0, 5.0))
    with pytest.raises(AssertionError, match=msg):
        select_cover(one)
    ref = _RefFamily((IntervalRC(0.0, 1.0, 1.0),), (2.0,), one.window)
    with pytest.raises(AssertionError, match=msg):
        _ref_select_cover(ref)


def test_cover_failure_reads_trial_t(monkeypatch, capsys):
    monkeypatch.setattr(harness, "random_family",
                        lambda *args, **kw: _failing_batch(ValueError("never raised")))
    scn = harness.parse_scenario({"name": "cov", "target": "covering_trials",
                                  "measure": {"kind": "lebesgue"},
                                  "options": {"trials": 3}})
    rep = harness.verify_scenario(scn)
    msg = "trial 1: selected interval misses its own midpoint"
    assert rep.details["coverage_failure"] == msg
    assert rep.details["worst_overlap"] == 1
    monkeypatch.setattr(cli, "random_family",
                        lambda *args, **kw: _failing_batch(None))
    with pytest.raises(AssertionError, match="^selected interval misses its own midpoint$"):
        cli.main(["cover", "--random", "3"])


@pytest.mark.parametrize("seed", [0, 7, 61])
def test_cli_cover_stdout_matches_reference(seed, capsys):
    assert cli.main(["cover", "--measure", "lebesgue", "--random", "200",
                     "--seed", str(seed)]) == 0
    want, _ = _ref_trials(LEB, range(seed, seed + 200))
    assert capsys.readouterr().out == f"{max(o for _, o in want)}\n"


def test_covering_experiment_smoke(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "covering_experiment.py"
    spec = importlib.util.spec_from_file_location("covering_experiment", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--trials", "3", "--ratios", "4", "64"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 4
    assert all(int(row.split()[4]) == 0 for row in rows)     # no misses

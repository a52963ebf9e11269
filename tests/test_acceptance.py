"""Acceptance gate: one test and one verdict line per criterion.

Each test appends a single PASS/FAIL line to the session summary
(the `acceptance criteria` section of the pytest output) and asserts
the same condition, so a red criterion fails the suite.
"""

import glob
import math

import numpy as np

from amalgam import norms
from amalgam.cli import main as cli_main
from amalgam.covering import random_family, select_cover
from amalgam.functions import (
    indicator,
    power_function,
    power_twist,
    riesz_kernel_function,
    scaled,
    table_function,
    tent,
)
from amalgam.harness import load_scenario, verify_scenario
from amalgam.measure import (
    growth_constant,
    lebesgue,
    make_interval,
    partition,
    power_measure,
)
from amalgam.norms import Exponent, amalgam_norm, default_r_grid, lq_norm, weak_norm
from amalgam.operators import maximal, maximal_profile, potential, riesz_kernel
from amalgam.weights import (
    a_r_constant,
    default_interval_family,
    make_weight,
    reverse_holder_check,
)

LEB = lebesgue()


def check(log, num, name, ok, detail):
    line = f"[{num:2d}] {name:<34} {'PASS' if ok else 'FAIL'}  {detail}"
    log(line)
    print(line)
    assert ok, line


def test_01_partition_exactness(acceptance_log):
    worst = 0.0
    for m in (LEB, power_measure(0.25), power_measure(0.5), power_measure(0.75)):
        for r in (0.1, 1.0, 10.0):
            window = make_interval(m, float(m.inv_cdf(-6.0 * r)),
                                   float(m.inv_cdf(6.0 * r)))
            part = partition(m, 0.0, r, window)
            masses = np.diff(m.cdf(part.breakpoints))
            worst = max(worst, float(np.max(np.abs(masses - r))) / r)
    part = partition(power_measure(0.5), 0.0, 1.0,
                     make_interval(power_measure(0.5), 0.0, 1.5))
    bp = part.breakpoints
    a1 = float(bp[int(np.argmin(np.abs(bp))) + 1])
    a1_err = abs(a1 - 0.25)
    ok = worst <= 1e-9 and a1_err <= 1e-10
    check(acceptance_log, 1, "partition exactness", ok,
          f"max rel mass err {worst:.2e}, a_1 err {a1_err:.2e}")


IDENTITY_FAMILY = [
    indicator(0.0, 1.0), indicator(-1.0, 1.0), indicator(2.0, 5.0),
    tent(-1.0, 1.0), tent(0.0, 0.5, 2.0),
    power_function(-0.5, (0.05, 2.0)), power_function(0.3, (-2.0, 2.0)),
    power_function(-0.25, (0.1, 3.0)),
    riesz_kernel_function(0.5, (0.5, 2.0)),
    table_function([[-1.0, 0.5], [0.0, 1.0], [0.5, 0.25], [1.0, 0.0]]),
]


def test_02_norm_identities(acceptance_log):
    worst = 0.0
    for f in IDENTITY_FAMILY:
        full, _ = amalgam_norm(LEB, f, 2, 2, 2)
        strong = lq_norm(LEB, f, f.support, 2)
        worst = max(worst, abs(full - strong) / strong)
    chi_err = max(abs(weak_norm(LEB, indicator(0.0, 1.0), alpha) - 1.0)
                  for alpha in (1, 2, 4))
    ok = worst <= 1e-3 and chi_err <= 1e-6
    check(acceptance_log, 2, "norm identities", ok,
          f"identity rel err {worst:.2e}, weak chi err {chi_err:.2e}")


EMBED_FAMILY = [
    indicator(0.0, 0.25), indicator(0.0, 1.0), indicator(-1.0, 1.0),
    indicator(-4.0, 4.0), indicator(1.0, 1.5), indicator(-0.1, 0.1),
    tent(-1.0, 1.0), tent(0.0, 2.0), tent(-0.5, 0.0, 3.0), tent(-3.0, 3.0, 0.5),
    power_function(-0.5, (0.05, 2.0)), power_function(-0.4, (0.1, 4.0)),
    power_function(0.5, (-1.0, 1.0)), power_function(-0.6, (0.02, 1.0)),
    riesz_kernel_function(0.5, (-1.0, 1.0)), riesz_kernel_function(0.3, (-2.0, 2.0)),
    riesz_kernel_function(0.7, (-0.5, 0.5)),
    table_function([[-1.0, 0.5], [0.0, 1.0], [1.0, 0.0]]),
    table_function([[0.0, 1.0], [1.0, 1.0], [1.5, 0.2], [3.0, 0.0]]),
    table_function([[-2.0, 0.1], [-1.0, 2.0], [0.0, 0.1], [2.0, 0.05], [3.0, 0.0]]),
]


def embedding_ratio(grid_mult, monkeypatch):
    monkeypatch.setattr(norms, "LAMBDA_GRID_SIZE", 512 * grid_mult)
    worst = 0.0
    for f in EMBED_FAMILY:
        grid = default_r_grid(LEB.mass(f.support), 64 * grid_mult)
        av, _ = amalgam_norm(LEB, f, 1, 4, 2, r_grid=grid)
        wv = weak_norm(LEB, f, 2)
        worst = max(worst, av / wv)
    return worst


def test_03_embedding_constant_stable(acceptance_log, monkeypatch):
    c1 = embedding_ratio(1, monkeypatch)
    c2 = embedding_ratio(2, monkeypatch)
    drift = abs(c2 - c1) / c1
    ok = math.isfinite(c1) and drift <= 0.10
    check(acceptance_log, 3, "embedding constant stability", ok,
          f"C={c1:.4g} over 20 functions, drift {drift:.2%} under doubling")


def test_04_maximal_oracle(acceptance_log):
    f = indicator(0.0, 1.0)
    val = maximal(LEB, f, 1, math.inf, 2.0)
    # Dense endpoint grid [t, s] around x = 2; averages hit the sup at
    # t = 0, s = 2 exactly, so the grid max is the true value 1/2.
    t = np.linspace(-2.0, 1.0, 601)[:, None]
    s = np.linspace(2.0, 8.0, 601)[None, :]
    cover = np.clip(np.minimum(s, 1.0) - np.maximum(t, 0.0), 0.0, None)
    oracle = float(np.max(cover / (s - t)))
    err = abs(val - oracle)
    rng = np.random.default_rng(2)
    xs = rng.uniform(-5.0, 5.0, size=100)
    base = maximal_profile(LEB, f, 1, math.inf, xs)
    doubled = maximal_profile(LEB, scaled(f, 2.0), 1, math.inf, xs)
    homog = float(np.max(np.abs(doubled - 2.0 * base) / (2.0 * base)))
    ok = err <= 1e-3 and homog <= 1e-9
    check(acceptance_log, 4, "maximal oracle + homogeneity", ok,
          f"|m-oracle|={err:.2e}, homog err {homog:.2e} on 100 points")


def test_05_kernel_weak_norm(acceptance_log):
    worst = 0.0
    for gamma in (0.3, 0.5, 0.7):
        k = riesz_kernel_function(gamma, (-1.0, 1.0))
        eta = Exponent.from_recip(1.0 - gamma)
        val = weak_norm(LEB, k, eta)
        worst = max(worst, abs(val - 2.0 ** (1.0 - gamma)) / 2.0 ** (1.0 - gamma))
    bound_ok = True
    margin = math.inf
    for a in (0.0, 0.25, 0.5):
        m = LEB if a == 0.0 else power_measure(a)
        for gamma in (0.3, 0.5, 0.7):
            if gamma < a:
                # eta = (1-a)/(1-gamma) drops below 1; the bound needs
                # gamma >= a.
                continue
            k = riesz_kernel_function(gamma, (-1.0, 1.0))
            eta = Exponent.from_recip((1.0 - gamma) / (1.0 - a))
            val = weak_norm(m, k, eta)
            bound = 2.0 ** (1.0 - gamma) * (2.0 / (1.0 - a)) ** eta.recip
            bound_ok = bound_ok and val <= bound * (1.0 + 1e-9)
            margin = min(margin, bound / val)
    ok = worst <= 1e-4 and bound_ok
    check(acceptance_log, 5, "kernel weak norm", ok,
          f"rel err vs 2^(1-gamma) {worst:.2e}, bound margin >= {margin:.3g}")


def test_06_riesz_routes(acceptance_log):
    f = indicator(-1.0, 1.0)
    oracle_err = abs(potential(LEB, f, riesz_kernel(0.5), 0.0) - 4.0)
    xs = np.linspace(-2.5, 2.5, 50)
    worst = 0.0
    for a in (0.25, 0.5):
        m, twist = power_measure(a), power_twist(f, a)
        for gamma in (0.4, 0.6):
            k = riesz_kernel(gamma)
            for x in xs:
                direct = potential(LEB, f, k, float(x))
                via = potential(m, twist, k, float(x))
                worst = max(worst, abs(direct - via) / abs(direct))
    ok = oracle_err <= 1e-5 and worst <= 1e-5
    check(acceptance_log, 6, "riesz oracle + route agreement", ok,
          f"I(0) err {oracle_err:.2e}, route rel err {worst:.2e} on 50x4 grid")


def test_07_covering_trials(acceptance_log):
    failures = 0
    worst_overlap = 0
    for m in (LEB, power_measure(0.5)):
        for trial in range(1000):
            fam = random_family(m, count=40, seed=trial)
            selected, overlap = select_cover(fam)
            ivs = fam.intervals
            chosen = [ivs[i] for i in selected]
            covered = all(any(iv.a <= c < iv.b for iv in chosen)
                          for c in fam.midpoints
                          if fam.window.a <= c < fam.window.b)
            failures += (not covered) or (overlap > 5)
            worst_overlap = max(worst_overlap, overlap)
    ok = failures == 0 and worst_overlap <= 5
    check(acceptance_log, 7, "covering trials", ok,
          f"2000 trials, failures {failures}, max overlap {worst_overlap}")


def test_08_growth_constant(acceptance_log):
    leb_val = growth_constant(LEB)
    power_worst = max(growth_constant(power_measure(a)) for a in (0.25, 0.5, 0.75))
    ok = leb_val == 1.0 and power_worst <= 2.0 + 1e-6
    check(acceptance_log, 8, "growth constant", ok,
          f"lebesgue {leb_val}, power max {power_worst:.6f}")


def test_09_weights(acceptance_log):
    one_err = abs(a_r_constant(LEB, make_weight({"kind": "one"}), 2).constant - 1.0)
    sqrt_w = make_weight({"kind": "power", "b": 0.5})
    res = a_r_constant(LEB, sqrt_w, 2)
    dense = a_r_constant(LEB, sqrt_w, 2,
                         interval_family=default_interval_family(
                             LEB, centers=64, scales=10))
    drift = abs(dense.constant - res.constant) / res.constant
    sqrt_ok = (not res.diverging and not dense.diverging
               and abs(res.constant - 1.5) <= 0.15 and drift <= 0.10)
    cubic = a_r_constant(LEB, make_weight({"kind": "power", "b": 3.0}), 2)
    _, delta, violations = reverse_holder_check(LEB, sqrt_w)
    ok = (one_err <= 1e-9 and sqrt_ok and cubic.diverging
          and violations == 0 and 0.0 < delta <= 1.0)
    check(acceptance_log, 9, "weight constants", ok,
          f"A2(1) err {one_err:.1e}, A2(sqrt) {res.constant:.4g} "
          f"(drift {drift:.2%}), A2(cubic) diverging {cubic.diverging}, "
          f"RH violations {violations}")


SUITE_TARGETS = ("thm21_part1", "thm21_part2", "cor23", "cor24",
                 "thm31_goodlambda", "prop34", "cor35", "cor36",
                 "prop41", "steinweiss")


def test_10_inequality_suites(acceptance_log):
    by_target = {}
    for path in sorted(glob.glob("scenarios/*.json")):
        scn = load_scenario(path)
        if scn.name.startswith("reject_"):
            continue
        by_target.setdefault(scn.target, []).append(scn)
    passed, failed = 0, []
    for target in SUITE_TARGETS:
        scns = by_target.get(target, [])
        if len(scns) < 3:
            failed.append(f"{target}: only {len(scns)} scenarios")
            continue
        for scn in scns:
            report = verify_scenario(scn)
            good = (report.verdict == "pass"
                    and math.isfinite(report.empirical_constant)
                    and report.refinement_stability <= 0.2
                    and report.homogeneity_ok)
            if good:
                passed += 1
            else:
                failed.append(f"{scn.name}: {report.verdict}")
    reject_codes = [cli_main(["verify", "--scenario", f"scenarios/{stem}.json"])
                    for stem in ("reject_thm21_p1", "reject_cor23_window",
                                 "reject_prop41_order")]
    ok = not failed and all(c == 2 for c in reject_codes)
    check(acceptance_log, 10, "inequality suites", ok,
          f"{passed} scenario passes over {len(SUITE_TARGETS)} targets, "
          f"rejects exit {reject_codes}" + (f"; failures {failed}" if failed else ""))


def test_11_determinism(acceptance_log, tmp_path):
    identical = True
    for stem in ("covering_power", "thm31_lebesgue"):
        blobs = []
        for run in (0, 1):
            out = tmp_path / f"{stem}_{run}"
            code = cli_main(["verify", "--scenario", f"scenarios/{stem}.json",
                             "--out", str(out)])
            assert code == 0
            blobs.append((out / "report.json").read_bytes()
                         + (out / "report.csv").read_bytes())
        identical = identical and blobs[0] == blobs[1]
    check(acceptance_log, 11, "determinism", identical,
          "byte-identical report JSON + CSV over repeated verify runs")

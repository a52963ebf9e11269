"""Scenario parsing, runners, reports, CLI plumbing and exit codes."""

import importlib.util
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from amalgam import cli, harness
from amalgam.cli import main
from amalgam.harness import (
    ConfigError,
    DEFAULT_SAMPLES,
    HypothesisRejected,
    TARGETS,
    TOOL_VERSION,
    _levels,
    load_scenario,
    parse_scenario,
    run_scenario,
    sample_grid,
    verify_scenario,
    weight_cell_masses,
    write_report,
)
from amalgam.functions import power_function, tent
from amalgam.measure import lebesgue, make_interval, make_measure, power_measure
from amalgam.norms import Exponent, LqTable, LqTables
from amalgam.weights import make_weight

THM21_BLOCK = {
    "target": "thm21_part1",
    "measure": {"kind": "lebesgue"},
    "functions": [{"kind": "indicator", "a": 0, "b": 1}],
    "exponents": {"q": 1, "alpha": 2, "beta": 4, "q1": 1, "alpha1": 1.25,
                  "p1": 1.3333333333333333},
    "samples": 256,
}


def thm21_block(**overrides):
    block = json.loads(json.dumps(THM21_BLOCK))
    block.update(overrides)
    return block


def test_parse_defaults():
    scn = parse_scenario({"target": "norm_properties",
                          "measure": {"kind": "lebesgue"},
                          "exponents": {"q": 2, "p": 2, "alpha": 2}})
    assert scn.samples == DEFAULT_SAMPLES
    assert scn.seed == 0
    assert scn.functions is None


def test_parse_rejects_unknown_field():
    with pytest.raises(ConfigError, match="unknown field"):
        parse_scenario(thm21_block(lambda_top=3.0))


@pytest.mark.parametrize("field, value", [
    ("lambda_grid", {"count": 8}), ("kappas", [0.5, 1, 2]),
    ("tolerances", {"stability": 0.2, "identity": 1e-3})])
def test_lambda_grid_is_an_unknown_field(tmp_path, capsys, field, value):
    # Level-set sups are exact, so the former lambda_grid knob is gone;
    # thm31's kappas and the verdict tolerances are fixed in the harness.
    with pytest.raises(ConfigError, match=rf"unknown field\(s\) \['{field}'\]"):
        parse_scenario(thm21_block(**{field: value}))
    p = tmp_path / "old.json"
    p.write_text(json.dumps(thm21_block(**{field: value})))
    assert main(["verify", "--scenario", str(p)]) == 3
    assert "unknown field" in capsys.readouterr().err


def test_parse_rejects_bad_target():
    with pytest.raises(ConfigError, match="target"):
        parse_scenario(thm21_block(target="thm99"))
    with pytest.raises(ConfigError):
        parse_scenario({"measure": {"kind": "lebesgue"}})


def test_parse_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        parse_scenario(thm21_block(measure="lebesgue"))
    with pytest.raises(ConfigError):
        parse_scenario(thm21_block(functions={"kind": "indicator"}))
    with pytest.raises(ConfigError):
        parse_scenario(thm21_block(samples=4))
    with pytest.raises(ConfigError):
        parse_scenario(thm21_block(seed=1.5))


@pytest.mark.parametrize("stem, path, value, match", [
    # A JSON boolean is a Python int, yet no number: true was read as 1.
    ("cor24_lebesgue", ("exponents", "q"), True, r"exponents\.q must be a number or 'inf'"),
    ("cor24_lebesgue", ("exponents", "alpha"), False,
     r"exponents\.alpha must be a number or 'inf'"),
    ("steinweiss_a25", ("exponents", "a"), True, r"exponents\.a must be a number"),
    ("steinweiss_a25", ("exponents", "gamma"), False, r"exponents\.gamma must be a number"),
    ("cor24_lebesgue", ("window_mass",), True,
     r"field 'window_mass' must be a positive number"),
    ("cor24_lebesgue", ("seed",), True, r"field 'seed' must be a non-negative int"),
    ("cor24_lebesgue", ("seed",), False, r"field 'seed' must be a non-negative int"),
    # default_rng rejects a negative seed; thm31's weight sampler read
    # it as a rejection, exit 2, and a covering file aborted a sweep.
    ("thm31_lebesgue", ("seed",), -1, r"field 'seed' must be a non-negative int"),
    ("covering_lebesgue", ("seed",), -1, r"field 'seed' must be a non-negative int"),
], ids=["q_true", "alpha_false", "a_true", "gamma_false", "window_mass_true",
        "seed_true", "seed_false", "thm31_seed_-1", "covering_seed_-1"])
def test_a_boolean_or_a_negative_seed_is_a_config_error(tmp_path, capsys, stem, path,
                                                       value, match):
    block = json.loads(Path(f"scenarios/{stem}.json").read_text())
    *outer, key = path
    inner = block
    for k in outer:
        inner = inner[k]
    inner[key] = value
    with pytest.raises(ConfigError, match=rf"^{stem}: {match}$"):
        run_scenario(parse_scenario(block, stem))
    p = tmp_path / f"{stem}.json"
    p.write_text(json.dumps(block))
    assert main(["verify", "--scenario", str(p)]) == 3
    assert capsys.readouterr().err.startswith(f"config error: {stem}: ")


def test_load_scenario_reports_json_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"target": "cor23",\n  "measure": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_scenario(p)


def test_targets_enumeration():
    assert len(TARGETS) == 14
    assert "thm31_goodlambda" in TARGETS and "steinweiss" in TARGETS


def test_sample_grid_layout():
    grid = sample_grid(lebesgue(), 8.0, 64)
    assert grid.ts.size == 64 and grid.xs.size == 64
    assert grid.cell == pytest.approx(16.0 / 64)
    assert np.all(np.diff(grid.xs) > 0)
    assert grid.t_lo == -8.0 and grid.t_hi == 8.0


def _brute_sup(values, prof, lams, k, e):
    """max of lam^k * (sum of values over {prof > lam})^e over lams."""
    sums = (prof[None, :] > lams[:, None]).astype(float) @ values
    return float(np.max(lams ** k * sums ** e))


@pytest.mark.parametrize("seed", range(4))
def test_levels_give_the_exact_sup(seed):
    # Ties (rounded values), zeros, NaN (in no level set) and +inf (in
    # every level set) all appear in the profile.
    rng = np.random.default_rng(seed)
    n = 400
    prof = np.round(rng.lognormal(0.0, 2.0, n), 1)
    prof[rng.random(n) < 0.1] = 0.0
    prof[rng.random(n) < 0.05] = np.nan
    prof[rng.random(n) < 0.03] = np.inf
    values = rng.uniform(0.0, 1.0, n)
    finite = prof[np.isfinite(prof)]
    top = finite.max()
    floor = 1e-3 * top
    lams, sums = _levels(values, prof, floor)
    sampled = np.unique(finite[finite >= floor])
    assert lams.tolist() == sampled.tolist()
    assert _levels(values, prof, sampled[5])[0].tolist() == sampled[5:].tolist()
    left = np.nextafter(sampled, -np.inf)
    geometric = np.geomspace(floor, top, 10_000)
    for k in (0.0, 0.5, 1.0, 2.0):
        for e in (0.25, 1.0):
            exact = float(np.max(lams ** k * sums ** e))
            assert exact == pytest.approx(_brute_sup(values, prof, left, k, e), rel=1e-12)
            assert exact >= _brute_sup(values, prof, geometric, k, e) * (1.0 - 1e-12)


def test_levels_of_a_zero_profile():
    values = np.ones(6)
    for prof in (np.zeros(6), np.array([0.0, np.nan, 0.0, -1.0, 0.0, 0.0])):
        lams, sums = _levels(values, prof, 0.0)
        assert lams.tolist() == [1.0] and sums.tolist() == [0.0]


def test_run_thm21_zero_function_passes():
    block = thm21_block(functions=[{"kind": "table",
                                    "points": [[0.0, 0.0], [1.0, 0.0]]}])
    report = run_scenario(parse_scenario(block))
    assert report.verdict == "pass"
    assert report.empirical_constant == 0.0
    assert all(row["lhs"] == 0.0 for row in report.rows)


def test_run_reports_homogeneity():
    report = run_scenario(parse_scenario(thm21_block()))
    assert report.homogeneity_ok is True
    assert report.witness is not None
    assert report.meta["version"] == TOOL_VERSION


def test_rejection_before_compute():
    bad = thm21_block(exponents={"q": 2, "alpha": 1.5, "beta": 4, "q1": 1,
                                 "alpha1": 1.25, "p1": 1.3333333333333333})
    with pytest.raises(HypothesisRejected):
        run_scenario(parse_scenario(bad))


def test_rejection_scenarios_on_disk():
    for stem in ("reject_thm21_p1", "reject_cor23_window", "reject_prop41_order"):
        scn = load_scenario(f"scenarios/{stem}.json")
        with pytest.raises(HypothesisRejected):
            run_scenario(scn)


def test_prop41_order_is_rejected_before_its_measure_block():
    # Its block says a = 0.5 and its exponents a = 0.6 > gamma.
    with pytest.raises(HypothesisRejected, match=r"^need 0 < a < gamma < 1$"):
        run_scenario(load_scenario("scenarios/reject_prop41_order.json"))


@pytest.mark.parametrize("measure", [{"kind": "power", "a": 0.3}, {"kind": "lebesgue"}],
                         ids=["power0.3", "lebesgue"])
@pytest.mark.parametrize("stem", ["prop41_alpha1", "steinweiss_a25"])
def test_prop41_rejects_a_measure_block_other_than_its_power_measure(stem, measure):
    block = json.loads(Path(f"scenarios/{stem}.json").read_text())
    assert block["measure"] == {"kind": "power", "a": block["exponents"]["a"]}
    block["measure"] = measure
    with pytest.raises(HypothesisRejected,
                       match=r"^measure block must be power with a = exponents\.a$"):
        run_scenario(parse_scenario(block))


# Density 1 on [-0.3, 0.3], 1e-4 outside, 1/|x| tails: F^-1(-4) and F^-1(4)
# overflow to -inf and inf.
LIGHT_TAILS = {"kind": "custom", "tail": {"left_exp": 1, "right_exp": 1},
               "density_table": [[-2, 1e-4], [-0.301, 1e-4], [-0.3, 1], [0.3, 1],
                                 [0.301, 1e-4], [2, 1e-4]]}


@pytest.mark.parametrize("stem, mass", [
    ("thm21_part1_custom", -16), ("thm31_lebesgue", -16), ("prop34_lebesgue", -8),
    ("lem33_lebesgue", -5.71083), ("cor24_lebesgue", -8), ("covering_lebesgue", -6)])
def test_a_tail_that_overflows_f_inverse_is_rejected(stem, mass):
    m = make_measure(LIGHT_TAILS)
    with np.errstate(over="ignore"):
        assert m.inv_cdf(-4.0) == -np.inf and m.inv_cdf(4.0) == np.inf
    block = json.loads(Path(f"scenarios/{stem}.json").read_text())
    block["measure"] = LIGHT_TAILS
    # The suite turns warnings into errors, so no overflow may warn first.
    with pytest.raises(HypothesisRejected, match=(
            rf"^{stem}: measure: F\^-1 overflows in the left tail at the "
            rf"scanned mass {mass}$")):
        run_scenario(parse_scenario(block))


def test_cli_rejects_a_tail_that_overflows_f_inverse_with_exit_2(tmp_path, capsys):
    block = json.loads(Path("scenarios/thm31_lebesgue.json").read_text())
    block["measure"] = LIGHT_TAILS
    p = tmp_path / "light.json"
    p.write_text(json.dumps(block))
    assert main(["verify", "--scenario", str(p)]) == 2
    assert "F^-1 overflows in the left tail" in capsys.readouterr().err


def test_lem32_skip_is_not_failure(monkeypatch):
    # At a = 0.5 of the top the interval cuts the tent's support, so the
    # fitted threshold is positive and the one b below it is dropped.  (At
    # the pinned heights 0.3 and 0.1 the interval holds the whole support,
    # the threshold is 0 and every b survives.)
    monkeypatch.setattr(harness, "LEM32_A_FRACS", (0.5,))
    monkeypatch.setattr(harness, "LEM32_B_GRID", (1e-6,))
    block = {
        "target": "lem32",
        "measure": {"kind": "lebesgue"},
        "functions": [{"kind": "tent", "a": 0, "b": 1}],
        "kernel": {"kind": "riesz", "gamma": 0.5},
        "exponents": {"q": 1, "beta": 2},
        "samples": 256,
    }
    report = verify_scenario(parse_scenario(block))
    assert report.verdict == "skip"
    assert report.rows == []
    assert "diagnostic" in report.details


def test_verify_stability_fields():
    report = verify_scenario(load_scenario("scenarios/cor24_lebesgue.json"))
    assert report.verdict == "pass"
    assert report.refinement_stability <= 0.2
    assert "refined_constant" in report.details
    assert np.isfinite(report.empirical_constant)


@pytest.mark.parametrize("stem, bound", [
    ("thm31_lebesgue", 0.05), ("thm31_power", 0.05), ("thm31_table_kernel", 0.05),
    ("thm21_part2_lebesgue", 0.01), ("cor23_power", 0.01)])
def test_exact_level_sups_settle_under_refinement(stem, bound):
    # With exact level-set sups a doubled grid only resolves the
    # operators better, so these constants move by under 2%.
    scn = load_scenario(f"scenarios/{stem}.json")
    scn.seed = 0
    report = verify_scenario(scn)
    assert report.homogeneity_ok is True
    assert report.refinement_stability <= bound


def test_cor23_dilation_spread_small():
    report = run_scenario(load_scenario("scenarios/cor23_dilation.json"))
    worst = {}
    for row in report.rows:
        worst[row["function"]] = max(worst.get(row["function"], 0.0), row["ratio"])
    assert len(worst) == 3
    vals = sorted(worst.values())
    assert (vals[-1] - vals[0]) / vals[-1] < 0.25


def test_report_json_deterministic():
    scn = load_scenario("scenarios/norms_identity.json")
    r1 = verify_scenario(scn)
    r2 = verify_scenario(scn)
    assert r1.to_json() == r2.to_json()


def test_write_report_files(tmp_path):
    report = run_scenario(parse_scenario(thm21_block()))
    write_report(report, tmp_path)
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["target"] == "thm21_part1"
    assert data["verdict"] == "pass"
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0] == ("target,function,lam,lhs,rhs_core,ratio,note,"
                            "version,seed,samples,grid_scale")
    assert len(csv_lines) == 1 + len(report.rows)


# --- CLI ---


def test_cli_norm_power_measure(capsys):
    code = main(["norm", "--measure", "power:0.5", "--function", "indicator:0:1",
                 "--q", "1", "--p", "inf", "--alpha", "1", "--r", "1"])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0, rel=1e-6)


def test_cli_norm_sup_of_a_spike(capsys):
    # alpha = p = inf is the sup of |f|, here at the window's left end.
    code = main(["norm", "--measure", "lebesgue", "--function", "power:-0.25:0.05:2",
                 "--q", "1", "--p", "inf", "--alpha", "inf"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2.11474252688"


def test_cli_norm_sup_at_the_right_end(capsys):
    # |x|^0.5 on [0.05, 2) approaches its sup sqrt 2 at the right end,
    # which [a, b) leaves out: the left limit there is read.
    code = main(["norm", "--measure", "lebesgue", "--function", "power:0.5:0.05:2",
                 "--q", "1", "--p", "inf", "--alpha", "inf"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1.41421356237"


# ROADMAP open item 3: the default r-grid, [mass/256, 4 mass], misses a
# sup that lies at smaller scales.  A 300-scale scan finds 117.636 at
# r = 2.5e-4 (one table cell); --r 1e-4 alone reads 113.989236006.
# Remove the marker once the scan covers a range that holds the sup.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the default r-grid misses a small-scale sup")
def test_cli_norm_finds_the_small_scale_sup(capsys):
    code = main(["norm", "--measure", "lebesgue", "--function", "power:-0.9:0.001:1",
                 "--q", "1", "--p", "8", "--alpha", "6"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    if out != "74.4188272078":
        pytest.fail(f"the item-3 query changed: it prints {out}")
    assert float(out) >= 117.6


def test_cli_maximal(capsys):
    code = main(["maximal", "--measure", "lebesgue", "--function",
                 "indicator:0:1", "--q", "1", "--beta", "inf", "--x", "2"])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5, abs=1e-3)


def test_cli_potential(capsys):
    code = main(["potential", "--measure", "lebesgue", "--function",
                 "indicator:-1:1", "--kernel", "riesz:0.5", "--x", "0"])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(4.0, rel=1e-5)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [
    ["maximal", "--measure", "lebesgue", "--function", "indicator:0:1",
     "--q", "1", "--beta", "inf"],
    ["potential", "--measure", "lebesgue", "--function", "indicator:-1:1",
     "--kernel", "riesz:0.5"]], ids=["maximal", "potential"])
def test_cli_rejects_non_finite_x(command, value, capsys):
    assert main([*command, f"--x={value}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error") and "--x" in captured.err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_cli_potential_rejects_a_tolerance_that_is_not_positive_and_finite(tol, capsys):
    # 0, -1 and nan would bisect until the panel budget runs out, and inf
    # would drop the ladder's tail and print a wrong value with exit 0.
    code = main(["potential", "--measure", "power:0.3", "--function", "tent:-1:1.5:2",
                 "--kernel", "riesz:0.5", "--x", "0.7", f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.splitlines() == [
        f"config error: argument --tol: invalid positive_finite value: '{tol}'"]


@pytest.mark.parametrize("r, shown", [("-1", "-1.0"), ("0", "0.0"), ("inf", "inf"),
                                      ("nan", "nan")])
def test_cli_norm_rejects_a_bad_scale_before_any_arithmetic(r, shown, capsys):
    # Under filterwarnings = error a warning from r ** expo would surface
    # here as the exception instead of the config error.
    code = main(["norm", "--measure", "lebesgue", "--function", "tent:-1:1",
                 "--q", "1", "--p", "4", "--alpha", "2", "--r", r])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.splitlines() == [
        f"config error: block scale r must be positive and finite, got {shown}"]


def test_cli_weight(capsys):
    code = main(["weight", "--measure", "lebesgue", "--weight", "one", "--r", "2"])
    assert code == 0
    out = capsys.readouterr().out.split()
    assert float(out[0]) == pytest.approx(1.0, abs=1e-9)
    assert out[1] == "finite"


def test_cli_cover(capsys):
    code = main(["cover", "--measure", "lebesgue", "--random", "50", "--seed", "7"])
    assert code == 0
    assert int(capsys.readouterr().out.strip()) <= 5


def test_cli_verify_pass(tmp_path, capsys):
    code = main(["verify", "--scenario", "scenarios/norms_identity.json",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass" in out
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.csv").exists()


def test_cli_verify_rejects_with_exit_2(capsys):
    code = main(["verify", "--scenario", "scenarios/reject_thm21_p1.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "reject" in (captured.out + captured.err).lower()


def test_cli_verify_failing_verdict_exit_1(tmp_path, capsys, monkeypatch):
    # At q = p = alpha both sides of the identity row are lq_norm, so the
    # row is exact; only a negative tolerance makes it fail.
    monkeypatch.setattr(harness, "IDENTITY_TOL", -1.0)
    block = {"target": "norm_properties", "measure": {"kind": "lebesgue"},
             "functions": [{"kind": "indicator", "a": 0, "b": 1}],
             "exponents": {"q": 2, "p": 2, "alpha": 2}}
    p = tmp_path / "fail.json"
    p.write_text(json.dumps(block))
    code = main(["verify", "--scenario", str(p)])
    capsys.readouterr()
    assert code == 1


def test_cli_malformed_config_exit_3(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["verify", "--scenario", str(p)]) == 3
    capsys.readouterr()
    assert main(["norm", "--measure", "bogus", "--function", "indicator:0:1",
                 "--q", "1", "--p", "2", "--alpha", "1.5"]) == 3
    capsys.readouterr()
    assert main(["frobnicate"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_tol_flag_is_gone(command, capsys):
    # The refinement gate is a fixed 20%: no flag loosens it.
    assert main([command, "--scenario", "scenarios/norms_identity.json",
                 "--tol", "0.5"]) == 3
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_cli_sweep_writes_summary(tmp_path, capsys):
    code = main(["sweep", "--scenario", "scenarios/norms_identity.json",
                 "--scenario", "scenarios/covering_lebesgue.json",
                 "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert [e["scenario"] for e in summary] == ["norms_identity", "covering_lebesgue"]
    assert all(e["status"] == "pass" for e in summary)
    assert (tmp_path / "norms_identity.json").exists()
    assert (tmp_path / "covering_lebesgue.csv").exists()


def test_cli_seed_override_changes_meta(tmp_path):
    main(["verify", "--scenario", "scenarios/covering_lebesgue.json",
          "--seed", "99", "--out", str(tmp_path)])
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["meta"]["seed"] == 99


COVERING_BLOCK = {"target": "covering_trials", "measure": {"kind": "lebesgue"},
                  "options": {"trials": 2}}


@pytest.mark.parametrize("options, match", [
    ({"trials": 0}, r"options\.trials must be an int >= 1"),
    ({"trials": 1.5}, r"options\.trials must be an int >= 1"),
    ({"trials": True}, r"options\.trials must be an int >= 1"),
    ({"bogus": 1}, r"unknown option\(s\) \['bogus'\]"),
    # The removed options fail as unknown whatever their value: the values
    # their range checks used to reject reach no leftover check first.
    ({"count": 40}, r"unknown option\(s\) \['count'\]"),
    ({"count": 0}, r"unknown option\(s\) \['count'\]"),
    ({"count": "40"}, r"unknown option\(s\) \['count'\]"),
    ({"mass_range": [0, 1]}, r"unknown option\(s\) \['mass_range'\]"),
    ({"mass_range": [2, 1]}, r"unknown option\(s\) \['mass_range'\]"),
    ({"mass_range": [1, math.inf]}, r"unknown option\(s\) \['mass_range'\]"),
    ({"mass_range": [1]}, r"unknown option\(s\) \['mass_range'\]"),
    ({"mass_range": [1e-300, 1e-300]}, r"unknown option\(s\) \['mass_range'\]"),
    ({"center_range": [1, 1]}, r"unknown option\(s\) \['center_range'\]"),
    ({"center_range": [2, "x"]}, r"unknown option\(s\) \['center_range'\]"),
    ({"mass_range": [0.5, 2], "center_range": [-4, 4]},
     r"unknown option\(s\) \['center_range', 'mass_range'\]"),
])
def test_covering_options_are_validated(options, match):
    block = {**COVERING_BLOCK, "options": {**COVERING_BLOCK["options"], **options}}
    with pytest.raises(ConfigError, match=r"^cov: " + match):
        run_scenario(parse_scenario(block, name="cov"))


def test_covering_options_config_error_exit_3(tmp_path, capsys):
    for options in ({"trials": 0}, {"bogus": 1}, {"count": 40},
                    {"mass_range": [0.5, 2]}, {"center_range": [-4, 4]}):
        p = tmp_path / "cov.json"
        p.write_text(json.dumps({**COVERING_BLOCK, "options": options}))
        assert main(["verify", "--scenario", str(p)]) == 3
        assert capsys.readouterr().err.startswith("config error: cov: ")


def test_covering_options_in_range_run():
    report = run_scenario(parse_scenario(COVERING_BLOCK))
    assert report.details["trials"] == 2 and report.details["count"] == 40
    assert 1 <= report.empirical_constant <= 5


def _file_block(stem: str, **changes) -> dict:
    block = json.loads(Path(f"scenarios/{stem}.json").read_text())
    block.update(changes)
    return block


@pytest.mark.parametrize("stem, options, match", [
    # lem32's grids are fixed, so its former options are unknown ones.
    ("lem32_lebesgue", {"a_fracs": [0.3, 0.1]}, r"\['a_fracs'\]"),
    ("lem32_lebesgue", {"b_grid": [2, 3, 4, 6]}, r"\['b_grid'\]"),
    ("lem32_power", {"c_grid": [0.05, 0.1, 0.2, 0.4, 0.8]}, r"\['c_grid'\]"),
    ("lem32_power", {"b_gird": [2]}, r"\['b_gird'\]"),
    ("cor24_lebesgue", {"trails": 5}, r"\['trails'\]"),
    ("cor24_lebesgue", {"trials": 5}, r"\['trials'\]"),
])
def test_options_off_covering_are_unknown_exit_3(tmp_path, capsys, stem, options, match):
    block = _file_block(stem, options=options)
    with pytest.raises(ConfigError, match=rf"^{stem}: unknown option\(s\) {match}$"):
        parse_scenario(block, name=stem)
    p = tmp_path / f"{stem}.json"
    p.write_text(json.dumps(block))
    assert main(["verify", "--scenario", str(p)]) == 3
    assert capsys.readouterr().err.startswith(f"config error: {stem}: unknown option")


def test_every_scenario_file_reads_only_its_targets_exponents():
    paths = sorted(Path("scenarios").glob("*.json"))
    assert len(paths) == 41
    for path in paths:
        scn = load_scenario(path)
        assert set(scn.exponents) <= set(harness.TARGET_EXPONENTS[scn.target])
    assert set(harness.TARGET_EXPONENTS) == set(TARGETS)


@pytest.mark.parametrize("stem, old, new", [
    ("cor24_lebesgue", "alpha", "alhpa"),
    ("prop41_alpha15", "eta", "eat"),
    ("lem32_power", "q", "Q")])
def test_a_misspelt_exponent_exits_3(tmp_path, capsys, stem, old, new):
    block = _file_block(stem)
    block["exponents"][new] = block["exponents"].pop(old)
    with pytest.raises(ConfigError, match=rf"reads no exponent\(s\) \['{new}'\]$"):
        parse_scenario(block, name=stem)
    p = tmp_path / f"{stem}.json"
    p.write_text(json.dumps(block))
    assert main(["verify", "--scenario", str(p)]) == 3
    assert "reads no exponent(s)" in capsys.readouterr().err


@pytest.mark.parametrize("functions", [None, []])
@pytest.mark.parametrize("stem, code", [
    ("cor24_lebesgue", 3), ("lem32_power", 3), ("steinweiss_a25", 3),
    # The hypothesis gates run before the family is read.
    ("reject_thm21_p1", 2), ("reject_cor23_window", 2), ("reject_prop41_order", 2)])
def test_a_function_target_needs_functions(tmp_path, capsys, stem, code, functions):
    block = _file_block(stem)
    del block["functions"]
    if functions is not None:
        block["functions"] = functions
    p = tmp_path / f"{stem}.json"
    p.write_text(json.dumps(block))
    assert main(["verify", "--scenario", str(p)]) == code
    err = capsys.readouterr().err
    if code == 3:
        assert err.startswith("config error: ") and "needs a functions list" in err
    else:
        assert "needs a functions list" not in err


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: the covering constant is an integer worst overlap, so base 3 "
    "against refined 4 is a drift of 0.25 > 0.2 and the verdict is fail "
    "although every overlap is <= 5"))
def test_covering_seed_61_fails_only_on_refinement_drift():
    scn = load_scenario("scenarios/covering_lebesgue.json")
    scn.seed = 61
    report = verify_scenario(scn)
    facts = (report.empirical_constant, report.details["refined_constant"],
             report.details["coverage_failure"], report.refinement_stability)
    if facts != (3.0, 4.0, None, 0.25):
        pytest.fail(f"the seed-61 run changed: {facts}")
    assert report.verdict == "pass"


@pytest.mark.parametrize("argv", [
    ["verify", "--scenario", "scenarios/cor24_lebesgue.json", "--grid-scale", "0"],
    ["sweep", "--scenario", "scenarios/cor24_lebesgue.json", "--grid-scale", "-1"],
    ["sweep", "--scenario", "scenarios/cor24_lebesgue.json", "--jobs", "0"],
    ["cover", "--random", "3", "--count", "0"],
    ["cover", "--random", "0"],
    ["cover", "--random", "-2"]],
    ids=["verify", "sweep", "jobs", "cover", "cover_random_0", "cover_random_neg"])
def test_cli_rejects_counts_below_one(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: argument {argv[-2]}: ")


def test_cli_parser_is_reused_without_shared_state(capsys):
    # The sup sits below the default scan grid, so the extra scale shows.
    # (At alpha = p no scale is scanned, so the triple has alpha < p.)
    with_r = ["norm", "--measure", "lebesgue", "--function", "power:-0.9:0.001:1",
              "--q", "1", "--p", "8", "--alpha", "6", "--r", "1e-4"]
    argvs = [with_r, with_r[:-2]]
    fresh = []
    for argv in argvs:
        args = cli.build_parser().parse_args(argv)
        assert args.fn(args) == 0
        fresh.append(capsys.readouterr().out)
    assert fresh[0] != fresh[1]
    for argv, out in zip(argvs, fresh):
        assert main(argv) == 0
        assert capsys.readouterr().out == out
    assert cli._parser() is cli._parser()
    assert cli._parser().parse_args(argvs[1]).r == []


def test_cli_grid_scale_flag(tmp_path, capsys):
    code = main(["verify", "--scenario", "scenarios/norms_identity.json",
                 "--grid-scale", "2"])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("expr", ["indicator:0:1", "tent:-1:1:2",
                                  "power:-0.5:0.05:2", "riesz_kernel:0.5"])
def test_cli_function_specs_parse(expr, capsys):
    code = main(["norm", "--measure", "lebesgue", "--function", expr,
                 "--q", "1", "--p", "2", "--alpha", "1.5"])
    capsys.readouterr()
    assert code == 0


# --- one driver: the probe has no side effects, sweeps do not depend on --jobs


ONE_PER_TARGET = ["thm21_part1_lebesgue", "thm21_part2_power", "cor23_power",
                  "cor24_lebesgue", "thm31_power", "lem32_lebesgue", "lem33_power",
                  "prop34_power", "cor35_power", "cor36_power", "prop41_alpha15",
                  "steinweiss_a25", "norms_embedding", "covering_lebesgue"]


def small_scenario_block(stem: str) -> dict:
    block = json.loads(Path(f"scenarios/{stem}.json").read_text())
    block.update(samples=64)
    if block["target"] == "covering_trials":
        block["options"] = {**block.get("options", {}), "trials": 3}
    return block


def test_one_scenario_per_target():
    targets = {load_scenario(f"scenarios/{s}.json").target for s in ONE_PER_TARGET}
    assert targets == set(TARGETS)


@pytest.mark.parametrize("stem", ONE_PER_TARGET)
def test_homogeneity_probe_leaves_report_alone(stem):
    scn = parse_scenario(small_scenario_block(stem), stem)
    probed = run_scenario(scn, check_homogeneity=True).to_dict()
    plain = run_scenario(scn, check_homogeneity=False).to_dict()
    assert probed["homogeneity_ok"] is True
    for key in ("rows", "details", "witness", "empirical_constant"):
        assert probed[key] == plain[key], key


def test_cli_sweep_jobs_do_not_change_output(tmp_path, capsys):
    argv = ["sweep"]
    for stem in ("cor24_lebesgue", "norms_identity", "covering_lebesgue"):
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(small_scenario_block(stem)))
        argv += ["--scenario", str(path)]
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code = main(argv + ["--out", str(out), "--jobs", jobs])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((code, capsys.readouterr().out, files))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][2]) == 7     # two files per scenario plus the summary


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_sweep_goes_on_past_a_malformed_file(tmp_path, jobs, capsys):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    for stem in ("a_norms_identity", "c_covering_lebesgue"):
        block = small_scenario_block(stem[2:])
        (scenarios / f"{stem}.json").write_text(json.dumps(block))
    (scenarios / "b_broken.json").write_text('{"target": "cor23",\n  "measure": }\n')
    out = tmp_path / "out"
    code = main(["sweep", "--dir", str(scenarios), "--out", str(out), "--jobs", jobs])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines == ["norms_identity [norm_properties] pass", "b_broken [?] error",
                     "covering_lebesgue [covering_trials] pass"]
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert [e["status"] for e in summary] == ["pass", "error", "pass"]
    assert summary[1]["scenario"] == "b_broken" and summary[1]["target"] is None
    assert "b_broken.json: invalid JSON at line 2" in summary[1]["reason"]


def test_cli_sweep_goes_on_past_a_negative_seed(tmp_path, capsys):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    for stem, seed in (("a_norms_identity", 0), ("b_covering_lebesgue", -1),
                       ("c_covering_lebesgue", 0)):
        block = dict(small_scenario_block(stem[2:]), name=stem, seed=seed)
        (scenarios / f"{stem}.json").write_text(json.dumps(block))
    out = tmp_path / "out"
    assert main(["sweep", "--dir", str(scenarios), "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a_norms_identity [norm_properties] pass", "b_covering_lebesgue [?] error",
        "c_covering_lebesgue [covering_trials] pass"]
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary[1]["reason"] == (
        "b_covering_lebesgue: field 'seed' must be a non-negative int")


@pytest.mark.parametrize("argv", [
    ["verify", "--scenario", "scenarios/cor24_lebesgue.json"],
    ["sweep", "--scenario", "scenarios/cor24_lebesgue.json"],
    ["cover", "--random", "3"]], ids=["verify", "sweep", "cover"])
def test_cli_rejects_a_negative_seed(argv, capsys):
    assert main([*argv, "--seed=-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: argument --seed: invalid non_negative_int value: '-1'"]


def _load_layers():
    """perfbench/layers.py, the benchmark's span tracer, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_verify_counts_profile_and_keeps_report(tmp_path, monkeypatch):
    def report_bytes(out):
        scn = load_scenario("scenarios/lem32_lebesgue.json")
        write_report(verify_scenario(scn), out)
        return [(out / name).read_bytes() for name in ("report.json", "report.csv")]

    calls = []
    profile = harness.maximal_profile
    monkeypatch.setattr(harness, "maximal_profile",
                        lambda *a, **k: calls.append(1) or profile(*a, **k))
    plain = report_bytes(tmp_path / "plain")
    monkeypatch.undo()

    layers = _load_layers()
    tracer = layers.Tracer()
    mods = [m for name, m in sys.modules.items()
            if name == "amalgam" or name.startswith("amalgam.")]
    saved = [(m, dict(vars(m))) for m in mods]
    init = LqTable.__init__
    try:
        layers.install(tracer)
        traced = report_bytes(tmp_path / "traced")
    finally:
        LqTable.__init__ = init
        for m, names in saved:
            for key, val in names.items():
                if vars(m).get(key) is not val:
                    setattr(m, key, val)
    stats = tracer.stats["operators.maximal_profile"]
    assert calls and stats["calls"] == len(calls)
    assert stats["candidates"] > 0 and stats["self_s"] > 0.0
    assert traced == plain
    assert harness.maximal_profile is profile


# LqTables built by one verify_scenario, base and refined run together:
# every table is distinct, so the count is the distinct count.
TABLE_BUILDS = {"lem33_lebesgue": 3, "thm21_part2_custom": 3,
                "prop41_alpha15": 3, "lem32_power": 2}


@pytest.mark.parametrize("stem", sorted(TABLE_BUILDS))
def test_verify_builds_each_table_once_and_serves_it_exact(stem, monkeypatch):
    served, built = [], []
    get, init = LqTables.get, LqTable.__init__

    def counting_get(self, m, f, q):
        table = get(self, m, f, q)
        served.append((m, f, q, table))
        return table

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LqTables, "get", counting_get)
    monkeypatch.setattr(LqTable, "__init__", counting_init)
    verify_scenario(load_scenario(f"scenarios/{stem}.json"))
    monkeypatch.undo()
    assert len(built) == TABLE_BUILDS[stem]
    assert len({id(t) for *_, t in served}) == len(built)
    assert len(served) > len(built)     # tables are served more often than built
    contents = {(t.t_edges.tobytes(), t.cum.tobytes()) for t in built}
    assert len(contents) == len(built)
    for m, f, q, table in served:
        fresh = LqTable(m, f, Exponent.of(q))
        assert np.array_equal(table.t_edges, fresh.t_edges)
        assert np.array_equal(table.cum, fresh.cum)


def test_tables_are_keyed_by_value_not_by_label():
    tables, m = LqTables(), power_measure(0.4)
    f = power_function(-0.5, (0.05, 2.0))
    # The same function rebuilt, under a rebuilt measure, shares its table.
    same = tables.get(power_measure(0.4), power_function(-0.5, (0.05, 2.0)), 1)
    assert tables.get(m, f, 1) is same
    assert tables.get(m, f, 1.5) is not same
    assert tables.get(m, f, "inf") is None
    # lem32's f|I keeps one label at every height, on another support.
    restricted = [replace(f, support=make_interval(m, 0.05, hi), levels=None,
                          label=f"{f.label}|I") for hi in (0.5, 1.0, 1.5)]
    served = [tables.get(m, g, 1) for g in restricted]
    assert len({id(t) for t in served + [same]}) == 4
    for g, table in zip(restricted, served):
        assert np.array_equal(table.cum, LqTable(m, g, Exponent.of(1)).cum)
    # A tent's height and a power's coefficient are not in the label.
    assert tent(-1.0, 1.0, 2.0).label == tent(-1.0, 1.0).label
    assert tables.get(m, tent(-1.0, 1.0, 2.0), 1) is not tables.get(m, tent(-1.0, 1.0), 1)
    double = power_function(-0.5, (0.05, 2.0), coefficient=2.0)
    assert double.label == f.label and tables.get(m, double, 1) is not same


@pytest.mark.parametrize("samples", [512, 1024, 2048])
@pytest.mark.parametrize("c", [0.05, 0.3, 0.5])
@pytest.mark.parametrize("m", [lebesgue(), power_measure(0.5)], ids=["lebesgue", "power0.5"])
def test_weight_cell_masses_are_exact_cell_integrals(m, c, samples):
    # In measure coordinates |x|^c = ((1 - a)|t|)^e with e = c / (1 - a)
    # for d mu = |x|^-a dx (a = 0: Lebesgue), whose integral is closed.
    grid = sample_grid(m, 8.0, samples)
    wmass = weight_cell_masses(m, make_weight({"kind": "power", "b": c}).fn, grid)
    a = m.a if m.kind == "power" else 0.0
    e = c / (1.0 - a)
    edges = np.concatenate([grid.ts - grid.cell / 2.0, [grid.t_hi]])
    prim = np.sign(edges) * (1.0 - a) ** e * np.abs(edges) ** (e + 1.0) / (e + 1.0)
    np.testing.assert_allclose(wmass, np.diff(prim), rtol=1e-11, atol=0.0)


def _fake_report(d: Path, stem: str, constant: float, verdict: str, csv_row: str,
                 rows=None):
    rows = [{"lhs": constant, "rhs_core": 1.0, "ratio": constant}] if rows is None else rows
    (d / f"{stem}.json").write_text(json.dumps(
        {"empirical_constant": constant, "verdict": verdict, "rows": rows},
        sort_keys=True))
    (d / f"{stem}.csv").write_text(f"ratio\n{csv_row}\n")


def test_compare_reports_smoke(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir(), new.mkdir()
    for d in (old, new):
        _fake_report(d, "same", 1.5, "pass", "1.5")
        (d / "sweep_summary.json").write_text(json.dumps([]))
    _fake_report(old, "moved", 2.0, "pass", "2.0")
    _fake_report(new, "moved", 1.5, "pass", "1.5")
    assert script.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "moved  2.0 -> 1.5  (-2.50e-01)  pass -> pass  rows 2.50e-01", "same  identical",
        "1 identical, 1 moved, 0 verdict changes, 0 one-sided"]
    _fake_report(new, "moved", 1.5, "fail", "1.5")
    assert script.main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "moved  2.0 -> 1.5  (-2.50e-01)  pass -> fail  rows 2.50e-01"
    assert lines[-1] == "1 identical, 1 moved, 1 verdict changes, 0 one-sided"
    (new / "same.json").unlink()
    assert script.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "same  only in OLD", "0 identical, 1 moved, 1 verdict changes, 1 one-sided"]
    # A rounding drift in one row's lhs, and equal constants over rows
    # whose count differs.
    row = {"lhs": 3.0, "rhs_core": 2.0, "ratio": 1.5}
    _fake_report(old, "moved", 2.0, "pass", "2.0", [row, row])
    _fake_report(new, "moved", 2.0, "pass", "2.0",
                 [row, {**row, "lhs": 3.0 * (1.0 + 2.0 ** -51)}])
    _fake_report(old, "same", 1.5, "pass", "1.5", [row, row])
    _fake_report(new, "same", 1.5, "pass", "1.5", [row])
    assert script.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "moved  2.0 -> 2.0  (0)  pass -> pass  rows 4.44e-16",
        "same  1.5 -> 1.5  (0)  pass -> pass  rows n/a",
        "0 identical, 2 moved, 0 verdict changes, 0 one-sided"]
    # The reports of a real sweep compare identical with themselves.
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", "scenarios/norms_identity.json", "--out", str(out)]) == 0
    capsys.readouterr()
    assert script.main([str(out), str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "norms_identity  identical",
        "1 identical, 0 moved, 0 verdict changes, 0 one-sided"]

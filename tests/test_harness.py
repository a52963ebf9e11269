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
    DEFAULT_KAPPAS,
    DEFAULT_SAMPLES,
    HypothesisRejected,
    TARGETS,
    TOOL_VERSION,
    _levels,
    default_family,
    load_scenario,
    parse_scenario,
    run_scenario,
    sample_grid,
    verify_scenario,
    write_report,
)
from amalgam.functions import power_function, tent
from amalgam.measure import lebesgue, make_interval, power_measure
from amalgam.norms import Exponent, LqTable, LqTables

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
    assert scn.kappas == DEFAULT_KAPPAS
    assert scn.seed == 0
    assert scn.functions is None


def test_parse_rejects_unknown_field():
    with pytest.raises(ConfigError, match="unknown field"):
        parse_scenario(thm21_block(lambda_top=3.0))


def test_lambda_grid_is_an_unknown_field(tmp_path, capsys):
    # Level-set sups are exact, so the former lambda_grid knob is gone.
    with pytest.raises(ConfigError, match=r"unknown field\(s\) \['lambda_grid'\]"):
        parse_scenario(thm21_block(lambda_grid={"count": 8}))
    p = tmp_path / "old.json"
    p.write_text(json.dumps(thm21_block(lambda_grid={"count": 8})))
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
    with pytest.raises(ConfigError):
        parse_scenario(thm21_block(kappas=[0.5, -1.0]))
    for bad in (["x"], 2, []):
        with pytest.raises(ConfigError, match=r"^bad_kappas: field 'kappas'"):
            parse_scenario(thm21_block(kappas=bad), name="bad_kappas")


def test_load_scenario_reports_json_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"target": "cor23",\n  "measure": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_scenario(p)


def test_targets_enumeration():
    assert len(TARGETS) == 14
    assert "thm31_goodlambda" in TARGETS and "steinweiss" in TARGETS


def test_default_family_shape():
    fam = default_family()
    assert len(fam) == 5
    labels = [f.label for f in fam]
    assert len(set(labels)) == len(labels)
    for f in fam:
        assert np.isfinite(f.support.a) and np.isfinite(f.support.b)


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


def test_lem32_skip_is_not_failure():
    block = {
        "target": "lem32",
        "measure": {"kind": "lebesgue"},
        "functions": [{"kind": "tent", "a": 0, "b": 1}],
        "kernel": {"kind": "riesz", "gamma": 0.5},
        "exponents": {"q": 1, "beta": 2},
        "samples": 256,
        "options": {"a_fracs": [0.5], "b_grid": [1e-6], "c_grid": [0.5]},
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


def test_cli_verify_failing_verdict_exit_1(tmp_path, capsys):
    # At q = p = alpha both sides of the identity row are lq_norm, so the
    # row is exact; only a negative tolerance makes it fail.
    block = {"target": "norm_properties", "measure": {"kind": "lebesgue"},
             "functions": [{"kind": "indicator", "a": 0, "b": 1}],
             "exponents": {"q": 2, "p": 2, "alpha": 2},
             "tolerances": {"identity": -1.0}}
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
                  "options": {"trials": 2, "count": 5}}


@pytest.mark.parametrize("options, match", [
    ({"trials": 0}, r"options\.trials must be an int >= 1"),
    ({"trials": 1.5}, r"options\.trials must be an int >= 1"),
    ({"trials": True}, r"options\.trials must be an int >= 1"),
    ({"count": 0}, r"options\.count must be an int >= 1"),
    ({"count": "40"}, r"options\.count must be an int >= 1"),
    ({"mass_range": [0, 1]}, r"options\.mass_range needs 0 < lo <= hi"),
    ({"mass_range": [2, 1]}, r"options\.mass_range needs 0 < lo <= hi"),
    ({"mass_range": [1, math.inf]}, r"options\.mass_range must be two finite"),
    ({"mass_range": [1]}, r"options\.mass_range must be two finite"),
    ({"mass_range": [1e-300, 1e-300]},
     r"options\.mass_range needs lo > 1\.77636e-15, twice the double spacing"),
    ({"center_range": [1, 1]}, r"options\.center_range needs lo < hi"),
    ({"center_range": [2, "x"]}, r"options\.center_range must be two finite"),
    ({"bogus": 1}, r"unknown option\(s\) \['bogus'\]"),
])
def test_covering_options_are_validated(options, match):
    block = {**COVERING_BLOCK, "options": {**COVERING_BLOCK["options"], **options}}
    with pytest.raises(ConfigError, match=r"^cov: " + match):
        run_scenario(parse_scenario(block, name="cov"))


def test_covering_options_config_error_exit_3(tmp_path, capsys):
    for options in ({"trials": 0}, {"count": 0}, {"bogus": 1},
                    {"mass_range": [1e-300, 1e-300]}):
        p = tmp_path / "cov.json"
        p.write_text(json.dumps({**COVERING_BLOCK, "options": options}))
        assert main(["verify", "--scenario", str(p)]) == 3
        assert capsys.readouterr().err.startswith("config error: cov: ")


def test_covering_options_in_range_run():
    options = {"trials": 2, "count": 5, "mass_range": [1, 1], "center_range": [-1, 2]}
    report = run_scenario(parse_scenario({**COVERING_BLOCK, "options": options}))
    assert report.details["trials"] == 2 and report.details["count"] == 5
    assert 1 <= report.empirical_constant <= 5


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
TABLE_BUILDS = {"lem33_lebesgue": 3, "thm21_part2_custom": 5,
                "prop41_alpha15": 3, "lem32_power": 2}


@pytest.mark.parametrize("stem", sorted(TABLE_BUILDS))
def test_verify_builds_each_table_once_and_serves_it_exact(stem, monkeypatch):
    served, built = [], []
    get, init = LqTables.get, LqTable.__init__

    def counting_get(self, m, f, q, cells=4096):
        table = get(self, m, f, q, cells)
        served.append((m, f, q, cells, table))
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
    for m, f, q, cells, table in served:
        fresh = LqTable(m, f, Exponent.of(q), cells)
        assert np.array_equal(table.t_edges, fresh.t_edges)
        assert np.array_equal(table.cum, fresh.cum)


def test_tables_are_keyed_by_value_not_by_label():
    tables, m = LqTables(), power_measure(0.4)
    f = power_function(-0.5, (0.05, 2.0))
    # The same function rebuilt, under a rebuilt measure, shares its table.
    same = tables.get(power_measure(0.4), power_function(-0.5, (0.05, 2.0)), 1)
    assert tables.get(m, f, 1) is same
    assert tables.get(m, f, 1.5) is not same
    assert tables.get(m, f, 1, cells=2048) is not same
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

"""Scenario parsing, runners, reports, CLI plumbing and exit codes."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from amalgam.cli import main
from amalgam.harness import (
    ConfigError,
    DEFAULT_KAPPAS,
    DEFAULT_LAMBDA_COUNT,
    DEFAULT_SAMPLES,
    HypothesisRejected,
    TARGETS,
    TOOL_VERSION,
    _level_sums,
    default_family,
    lambda_grid,
    load_scenario,
    parse_scenario,
    run_scenario,
    sample_grid,
    verify_scenario,
    write_report,
)
from amalgam.measure import lebesgue

THM21_BLOCK = {
    "target": "thm21_part1",
    "measure": {"kind": "lebesgue"},
    "functions": [{"kind": "indicator", "a": 0, "b": 1}],
    "exponents": {"q": 1, "alpha": 2, "beta": 4, "q1": 1, "alpha1": 1.25,
                  "p1": 1.3333333333333333},
    "samples": 256,
    "lambda_grid": {"count": 8},
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
    assert scn.lambda_count == DEFAULT_LAMBDA_COUNT
    assert scn.kappas == DEFAULT_KAPPAS
    assert scn.seed == 0
    assert scn.functions is None


def test_parse_rejects_unknown_field():
    with pytest.raises(ConfigError, match="unknown field"):
        parse_scenario(thm21_block(lambda_top=3.0))


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


def test_lambda_grid_span():
    lams = lambda_grid(5.0, 16)
    assert lams.size == 16
    assert lams[0] == pytest.approx(5e-3)
    assert lams[-1] == pytest.approx(5.0)
    assert np.all(np.diff(lams) > 0)
    assert lambda_grid(0.0, 16).tolist() == [1.0]


def test_level_sums_matches_loop():
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 1.0, 50)
    prof = rng.uniform(0.0, 2.0, 50)
    lams = np.array([0.2, 0.9, 1.7])
    out = _level_sums(values, prof, lams)
    for i, lam in enumerate(lams):
        assert out[i] == pytest.approx(values[prof > lam].sum(), rel=1e-12)


def test_sup_grows_with_lambda_grid():
    # The reported sups are maxima over lambda rows; a superset of
    # levels can only increase them.
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 1.0, 200)
    prof = rng.uniform(0.0, 3.0, 200)
    lams1 = lambda_grid(3.0, 8)
    lams2 = np.sort(np.concatenate([lams1, lambda_grid(2.9, 13)]))
    for kappa in (0.5, 1.0, 2.0):
        s1 = np.max(lams1 ** kappa * _level_sums(values, prof, lams1))
        s2 = np.max(lams2 ** kappa * _level_sums(values, prof, lams2))
        assert s2 >= s1 - 1e-12


def test_run_thm21_zero_function_passes():
    block = thm21_block(functions=[{"kind": "table",
                                    "points": [[0.0, 0.0], [1.0, 0.0]]}])
    report = run_scenario(parse_scenario(block))
    assert report.verdict == "pass"
    assert report.empirical_constant == 0.0
    assert all(row["lhs"] == 0.0 for row in report.rows)


def test_run_thm21_top_level_set_empty():
    report = run_scenario(parse_scenario(thm21_block()))
    assert report.verdict == "pass"
    by_f = {}
    for row in report.rows:
        by_f.setdefault(row["function"], []).append(row)
    for rows in by_f.values():
        top = max(rows, key=lambda r: r["lam"])
        assert top["lhs"] == 0.0


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
                            "version,seed,samples,lambda_count,grid_scale")
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
    block = {"target": "norm_properties", "measure": {"kind": "lebesgue"},
             "functions": [{"kind": "indicator", "a": 0, "b": 1}],
             "exponents": {"q": 2, "p": 2, "alpha": 2},
             "tolerances": {"identity": 1e-18}}
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
    block.update(samples=64, lambda_grid={"count": 4})
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

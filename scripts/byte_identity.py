#!/usr/bin/env python3
"""Check that two source trees write byte-identical sweep reports and
print byte-identical one-shot query results.

    python scripts/byte_identity.py PARENT_TREE CHANGE_TREE

Runs the README's "Byte-identical changes" recipe in each tree (every
scenario of its `scenarios/` at seeds 0, 7 and 61, and at
`--grid-scale 2`, with that tree's `src/` on PYTHONPATH) into a
temporary directory, which it removes.  A fifth sweep, `drop`, runs in
both trees on the same files: the six scenarios of DROP_SCENARIOS,
taken from PARENT_TREE's `scenarios/`, with each one's measure block
swapped for the drop measure at eps = 1e-2 (DROP_MEASURE: density 1 on
[-0.3, 0.3], eps beyond +-0.301, |x|^-0.5 tails).  It is the one sweep
that runs custom tails and density knots, which the CLI's `--measure`
cannot express.  For each of the five sweeps it prints
`compare_reports.py`'s summary line, then every file that is on one
side only or differs in its bytes (`report.json`, `report.csv` and
`sweep_summary.json` alike).

Then it runs a fixed list of CLI queries in each tree (QUERIES: the
README's CLI examples, its `verify` without `--out`, `cover --random
200` at seeds 0, 7 and 61 on Lebesgue and a power measure, four more
`weight` queries (one at r = 1, the essential-sup branch), a `potential`
at tol 1e-12, `maximal` at beta = 2 and inf and `norm` at p = 2 and
inf of tents on Lebesgue and a power measure, and two sups at q = inf:
`maximal` of a tent and `norm` at p = alpha = inf of a spike) and
prints one summary line, then every query whose stdout or exit code
differs.  Together they reach every caller of the G-K bisection driver
(measure._bisect).

Exits 1 on any byte difference in a report or a query's stdout, 2 if a
sweep could not run, else 0.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_reports import compare  # noqa: E402

SWEEPS = {"seed0": ["--seed", "0"], "seed7": ["--seed", "7"],
          "seed61": ["--seed", "61"], "gs2": ["--grid-scale", "2"]}

# A measure far from doubling (scanned doubling constant about 51) whose
# growth constant stays at most 2, and the scenarios it was probed on.
DROP_EPS = 1e-2
DROP_MEASURE = {
    "kind": "custom",
    "density_table": [[-2, DROP_EPS], [-0.301, DROP_EPS], [-0.3, 1], [0.3, 1],
                      [0.301, DROP_EPS], [2, DROP_EPS]],
    "tail": {"left_exp": 0.5, "right_exp": 0.5},
}
DROP_SCENARIOS = ["cor24_lebesgue", "thm21_part1_custom", "thm31_lebesgue",
                  "prop34_lebesgue", "cor36_alpha2", "lem33_lebesgue"]


QUERIES = [
    # the README's examples, verify without --out
    ["norm", "--measure", "power:0.5", "--function", "indicator:0:1", "--q", "1",
     "--p", "inf", "--alpha", "1", "--r", "1"],
    ["maximal", "--measure", "lebesgue", "--function", "indicator:0:1", "--q", "1",
     "--beta", "inf", "--x", "2"],
    ["potential", "--measure", "lebesgue", "--function", "indicator:-1:1",
     "--kernel", "riesz:0.5", "--x", "0"],
    ["weight", "--measure", "lebesgue", "--weight", "power:0.5", "--r", "2"],
    ["cover", "--measure", "lebesgue", "--random", "200", "--seed", "7"],
    ["verify", "--scenario", "scenarios/thm31_lebesgue.json"],
    # covering trials at the sweep seeds, and weights on power measures
    *[["cover", "--measure", m, "--random", "200", "--seed", seed]
      for m, seed in [("lebesgue", "0"), ("lebesgue", "61"), ("power:0.5", "0"),
                      ("power:0.5", "7"), ("power:0.5", "61")]],
    ["weight", "--measure", "power:0.5", "--weight", "power:0.25", "--r", "2"],
    ["weight", "--measure", "power:0.264", "--weight", "power:-0.2", "--r", "3"],
    # the ess-sup branch (r = 1), a dual weight on Lebesgue, and a potential
    # whose plain segments bisect for many rounds
    ["weight", "--measure", "power:0.4", "--weight", "power:-0.2", "--r", "1"],
    ["weight", "--measure", "lebesgue", "--weight", "power:-0.3", "--r", "1.5"],
    ["potential", "--measure", "power:0.3", "--function", "tent:-1:1.5:2",
     "--kernel", "riesz:0.5", "--x", "0.7", "--tol", "1e-12"],
    # tents, whose tables are valued by half-segment slices, across 0 and
    # on one side of it
    *[["maximal", "--measure", m, "--function", f, "--q", q, "--beta", beta, "--x", x]
      for m, f, q, beta, x in [
          ("lebesgue", "tent:-1:1.5", "1", "2", "0.3"),
          ("power:0.3", "tent:-1:1.5", "2", "inf", "-0.4"),
          ("lebesgue", "tent:0.5:2:3", "2", "inf", "3"),
          ("power:0.3", "tent:0.5:2:3", "1.5", "2", "1")]],
    *[["norm", "--measure", m, "--function", f, "--q", q, "--p", p, "--alpha", alpha,
       "--r", r]
      for m, f, q, p, alpha, r in [
          ("lebesgue", "tent:-1:1.5", "1", "2", "1.5", "1"),
          ("power:0.3", "tent:-1:1.5", "1", "inf", "2", "0.5"),
          ("power:0.3", "tent:0.5:2:3", "2", "2", "2", "1"),
          ("lebesgue", "tent:0.5:2:3", "1.5", "inf", "3", "2")]],
    # sups at q = inf: a tent's peak on its breakpoint, and a spike's on
    # its window's left end
    ["maximal", "--measure", "power:0.3", "--function", "tent:-1:1.5", "--q", "inf",
     "--beta", "inf", "--x", "0.3"],
    ["norm", "--measure", "lebesgue", "--function", "power:-0.5:0.05:2", "--q", "1",
     "--p", "inf", "--alpha", "inf"],
]


def _run_queries(tree: Path) -> list[tuple[int, str]]:
    """(exit code, stdout) of each query of QUERIES, run in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    runs = [subprocess.run([sys.executable, "-m", "amalgam", *query], cwd=tree,
                           env=env, capture_output=True, text=True)
            for query in QUERIES]
    return [(run.returncode, run.stdout) for run in runs]


def _write_drop_scenarios(tree: Path, out: Path) -> None:
    """DROP_SCENARIOS of tree's scenarios/ on DROP_MEASURE, written into out."""
    out.mkdir()
    for name in DROP_SCENARIOS:
        spec = json.loads((tree / "scenarios" / f"{name}.json").read_text())
        spec["measure"] = DROP_MEASURE
        (out / f"{name}.json").write_text(json.dumps(spec, indent=2, sort_keys=True))


def _run_sweeps(tree: Path, out: Path, drop_dir: Path) -> None:
    """The four sweeps of the recipe and the drop sweep over drop_dir,
    run in tree, into out/<name>."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    sweeps = [(name, "scenarios", flags) for name, flags in SWEEPS.items()]
    for name, scenarios, flags in [*sweeps, ("drop", str(drop_dir), [])]:
        # A sweep exits 1 when a scenario fails and 2 when one is
        # rejected; both still write every report.
        done = subprocess.run([sys.executable, "-m", "amalgam", "sweep", "--dir",
                               scenarios, "--out", str(out / name), *flags],
                              cwd=tree, env=env, capture_output=True, text=True)
        if done.returncode not in (0, 1, 2) or not (out / name).is_dir():
            raise RuntimeError(f"sweep {name} in {tree} exited {done.returncode}:\n"
                               f"{done.stderr}")


def _byte_differences(old: Path, new: Path) -> list[str]:
    files = {p.relative_to(d) for d in (old, new) for p in d.rglob("*") if p.is_file()}
    diffs = []
    for rel in sorted(files):
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            diffs.append(f"{rel}: only in {'PARENT' if a.is_file() else 'CHANGE'}")
        elif a.read_bytes() != b.read_bytes():
            diffs.append(f"{rel}: bytes differ")
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not ((tree / "src" / "amalgam").is_dir() and (tree / "scenarios").is_dir()):
            ap.error(f"{tree} has no src/amalgam or scenarios/")
    with tempfile.TemporaryDirectory(prefix="byte_identity_") as tmp:
        outs = [Path(tmp) / "parent", Path(tmp) / "change"]
        drop_dir = Path(tmp) / "drop_scenarios"
        _write_drop_scenarios(trees[0], drop_dir)
        try:
            for tree, out in zip(trees, outs):
                _run_sweeps(tree, out, drop_dir)
        except RuntimeError as e:
            print(e, file=sys.stderr)
            return 2
        code = 0
        for name in [*SWEEPS, "drop"]:
            old, new = outs[0] / name, outs[1] / name
            summary = io.StringIO()
            compare(old, new, out=summary)
            print(f"{name}: {summary.getvalue().splitlines()[-1]}")
            for line in _byte_differences(old, new):
                print(f"  {line}")
                code = 1
    runs = [_run_queries(tree) for tree in trees]
    differ = [(query, old, new) for query, old, new in zip(QUERIES, *runs) if old != new]
    print(f"cli: {len(QUERIES) - len(differ)} identical, {len(differ)} differ")
    for query, old, new in differ:
        print(f"  amalgam {' '.join(query)}: PARENT {old!r}, CHANGE {new!r}")
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())

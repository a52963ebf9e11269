#!/usr/bin/env python3
"""Check that two source trees write byte-identical sweep reports and
print byte-identical one-shot query results.

    python scripts/byte_identity.py PARENT_TREE CHANGE_TREE

Runs the README's "Byte-identical changes" recipe in each tree (every
scenario of its `scenarios/` at seeds 0, 7 and 61, and at
`--grid-scale 2`, with that tree's `src/` on PYTHONPATH) into a
temporary directory, which it removes.  For each of the four sweeps it
prints `compare_reports.py`'s summary line, then every file that is on
one side only or differs in its bytes (`report.json`, `report.csv` and
`sweep_summary.json` alike).

Then it runs a fixed list of one-shot CLI queries in each tree (QUERIES:
the README's CLI examples, `cover --random 200` at seeds 0, 7 and 61 on
Lebesgue and a power measure, and two more `weight` queries) and prints
one summary line, then every query whose stdout or exit code differs.

Exits 1 on any byte difference in a report or a query's stdout, 2 if a
sweep could not run, else 0.
"""

import argparse
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_reports import compare  # noqa: E402

SWEEPS = {"seed0": ["--seed", "0"], "seed7": ["--seed", "7"],
          "seed61": ["--seed", "61"], "gs2": ["--grid-scale", "2"]}


QUERIES = [
    # the README's one-shot examples
    ["norm", "--measure", "power:0.5", "--function", "indicator:0:1", "--q", "1",
     "--p", "inf", "--alpha", "1", "--r", "1"],
    ["maximal", "--measure", "lebesgue", "--function", "indicator:0:1", "--q", "1",
     "--beta", "inf", "--x", "2"],
    ["potential", "--measure", "lebesgue", "--function", "indicator:-1:1",
     "--kernel", "riesz:0.5", "--x", "0"],
    ["weight", "--measure", "lebesgue", "--weight", "power:0.5", "--r", "2"],
    ["cover", "--measure", "lebesgue", "--random", "200", "--seed", "7"],
    # covering trials at the sweep seeds, and weights on power measures
    *[["cover", "--measure", m, "--random", "200", "--seed", seed]
      for m, seed in [("lebesgue", "0"), ("lebesgue", "61"), ("power:0.5", "0"),
                      ("power:0.5", "7"), ("power:0.5", "61")]],
    ["weight", "--measure", "power:0.5", "--weight", "power:0.25", "--r", "2"],
    ["weight", "--measure", "power:0.264", "--weight", "power:-0.2", "--r", "3"],
]


def _run_queries(tree: Path) -> list[tuple[int, str]]:
    """(exit code, stdout) of each query of QUERIES, run in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    runs = [subprocess.run([sys.executable, "-m", "amalgam", *query], cwd=tree,
                           env=env, capture_output=True, text=True)
            for query in QUERIES]
    return [(run.returncode, run.stdout) for run in runs]


def _run_sweeps(tree: Path, out: Path) -> None:
    """The four sweeps of the recipe, run in tree, into out/<name>."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name, flags in SWEEPS.items():
        # A sweep exits 1 when a scenario fails and 2 when one is
        # rejected; both still write every report.
        done = subprocess.run([sys.executable, "-m", "amalgam", "sweep", "--dir",
                               "scenarios", "--out", str(out / name), *flags],
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
        try:
            for tree, out in zip(trees, outs):
                _run_sweeps(tree, out)
        except RuntimeError as e:
            print(e, file=sys.stderr)
            return 2
        code = 0
        for name in SWEEPS:
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

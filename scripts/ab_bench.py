#!/usr/bin/env python3
"""A/B benchmark of two source trees with perfbench, written to one JSON.

    python scripts/ab_bench.py PARENT_TREE CHANGE_TREE OUT_JSON

Runs each tree's `perfbench/run.py` (with cwd in that tree, so it times
that tree's `src/` and `scenarios/`) on both workloads at each seed of
SEEDS, PAIRS times per side and SECONDS seconds per run.  The runs of a
pair follow each other, and the side that goes first alternates from
one pair to the next, so a drift of the host's speed falls on both
sides alike.  Then it makes one traced run (`--trace 1`) per side and
workload at the first seed.

OUT_JSON holds, per workload and seed and per end-to-end metric of
CHANGE_TREE's BENCHMARK.json: both sides' medians, the parent's
quartiles and IQR, the change's relative move, the number of pairs in
which the change was better, and every run's value; and per side the
items that failed.  Per workload it holds each side's traced
`*.self_s` layers in seconds and as a share of `trace.wall_s`.  One line
per metric goes to stdout.  Exits 1 if a run failed an item or a
check, 2 if a run could not be read, else 0.  PAIRS x 2 workloads x 2
seeds x 2 sides runs of SECONDS each take about 75 minutes.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep", "point_queries")
SEEDS = (0, 11)
PAIRS = 10
# The benchmark's own run length (BENCHMARK.json's run_seconds).
SECONDS = 50
SIDES = ("parent", "change")


def _run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """perfbench's result line (correct, attempted, failed, metrics) and
    the environment of its record line, for one run in tree."""
    seconds = 1 if trace else SECONDS
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench in {tree} ({workload}, seed {seed}, trace "
                           f"{trace}) exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[-2])["record"]["environment"]
    return result


def _summary(metric: dict, runs: dict) -> dict:
    """Medians, the parent's quartiles and the change's pair wins of one
    end-to-end metric over the runs of both sides."""
    name, lower = metric["name"], metric["better"] == "lower"
    vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
    med = {side: statistics.median(v) for side, v in vals.items()}
    q1, _, q3 = statistics.quantiles(vals["parent"], n=4)
    wins = sum((c < p) if lower else (c > p)
               for p, c in zip(vals["parent"], vals["change"]))
    return {"unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "parent_median": med["parent"],
            "change_median": med["change"],
            "change_rel": med["change"] / med["parent"] - 1.0,
            "parent_quartiles": [q1, q3], "parent_iqr": q3 - q1,
            "change_better_pairs": wins, "pairs": len(vals["parent"]),
            "parent": vals["parent"], "change": vals["change"]}


def _self_split(result: dict) -> dict:
    """Each traced *.self_s layer in seconds and as a share of the pass."""
    metrics = result["metrics"]
    wall = metrics["trace.wall_s"]["value"]
    return {name: {"s": m["value"], "share": m["value"] / wall}
            for name, m in metrics.items() if name.endswith(".self_s")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("out", type=Path)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"{tree} has no perfbench/run.py")
    end_to_end = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    out = {"pairs": PAIRS, "seconds": SECONDS, "seeds": list(SEEDS), "workloads": {}}
    code = 0
    try:
        for workload in WORKLOADS:
            entry = out["workloads"][workload] = {}
            for seed in SEEDS:
                runs = {side: [] for side in SIDES}
                for pair in range(PAIRS):
                    for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                        runs[side].append(_run(trees[side], workload, seed, 0))
                out.setdefault("environment", runs["parent"][0]["environment"])
                failed = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
                code = max(code, int(any(failed.values())))
                entry[f"seed{seed}"] = {
                    "failed": failed,
                    "metrics": {m["name"]: _summary(m, runs) for m in end_to_end}}
                for name, s in entry[f"seed{seed}"]["metrics"].items():
                    print(f"{workload} seed {seed} {name}: parent {s['parent_median']:.6g} "
                          f"(IQR {s['parent_iqr']:.3g}), change {s['change_median']:.6g} "
                          f"({s['change_rel']:+.1%}), change better in "
                          f"{s['change_better_pairs']}/{s['pairs']} pairs", flush=True)
            traced = {side: _run(trees[side], workload, SEEDS[0], 1) for side in SIDES}
            code = max(code, int(any(r["failed"] for r in traced.values())))
            entry["traced"] = {side: _self_split(r) for side, r in traced.items()}
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

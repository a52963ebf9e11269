#!/usr/bin/env python3
"""Benchmark of the amalgam toolkit: two closed-loop workloads, one client.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 50 --trace 0

Workloads (inputs are made from --seed, which also overrides every
scenario's own seed, as ``amalgam verify --seed`` does):

  sweep          every scenarios/*.json verified at base scale 1, reports
                 written to a temporary directory
  point_queries  seeded one-shot norm/maximal/potential/weight/cover
                 commands driven in process through amalgam.cli.main

A run makes at least two passes over the workload, in one process on one
BLAS thread, and starts another only if it would end within --seconds.
The end-to-end times are host-normalized seconds: a fixed reference
computation runs before each item (a scenario's load, verify and report
write, or one query) and after the last, and an item's time is scaled
by REF_S over the median of the four reference times around it.  The
host's speed swings by up to 1.75x over tens of seconds; the reference
swings with it, so the scaled time stays put.  Each item counts at its
median over the passes.  With --trace 0 the run prints the end-to-end
metrics; with --trace 1 it makes one untraced and one traced pass, with
no reference runs, and prints the per-layer metrics (see layers.py) in
raw seconds.  Every item's output is checked, and every pass must
reproduce the first pass's outputs byte for byte.  The last line of
stdout is one JSON object with correct, attempted, failed and metrics;
the line before it records the environment, each scenario's empirical
constant and report digests, the raw and scaled per-item times, the
reference times and the sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
TMP = ROOT / ".perfbench_tmp"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 15
MIN_PASSES = 2
# Time of reference() on an unloaded 2-vCPU Intel Xeon virtual machine
# (Python 3.11, numpy 2.4): a normalized time of t seconds is what the
# item would take on a host that runs the reference in REF_S.
REF_S = 0.005

# The sweep verifies every scenario at this base grid scale (and, as
# verify does, at twice it).
SWEEP_SCALE = 1
# Queries per pass.  Sorted by time the kinds fall into three blocks:
# potential and cover (~2-5 ms), maximal and norm (~7-20 ms), weight
# (~0.1-0.25 s).  The fast block is as large as the slow one, so the
# median sits in the middle of the maximal block; the tail (10 items
# beyond it) sits inside the weight block.
QUERY_MIX = {"potential": 16, "cover": 8, "maximal": 72, "norm": 8,
             "weight": 24}

END_TO_END = [("wall_s", "s"), ("item_p50_s", "s"), ("item_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Per-layer metric -> unit.  A name is "<module>.<layer>.<stat>"; self_s
# excludes the enclosed layer spans (gk_panels inside potential_profile,
# LqTable inside maximal_profile), total_s includes them.  build_s and
# builds are LqTable's self_s and calls.
PER_LAYER = [
    ("operators.maximal_profile.self_s", "s"),
    ("operators.maximal_profile.total_s", "s"),
    ("operators.maximal_profile.calls", "count"),
    ("operators.maximal_profile.candidates", "count"),
    ("operators.potential_profile.self_s", "s"),
    ("operators.potential_profile.total_s", "s"),
    ("operators.potential_profile.calls", "count"),
    ("operators.potential_profile.points", "count"),
    ("measure.gk_panels.self_s", "s"),
    ("measure.gk_panels.calls", "count"),
    ("measure.gk_panels.panels", "count"),
    ("operators.maximal.self_s", "s"),
    ("operators.maximal.total_s", "s"),
    ("operators.maximal.calls", "count"),
    ("operators.potential.self_s", "s"),
    ("operators.potential.total_s", "s"),
    ("operators.potential.calls", "count"),
    ("operators.farfield_bound_check.self_s", "s"),
    ("operators.farfield_bound_check.calls", "count"),
    ("weights.a_r_constant.self_s", "s"),
    ("weights.a_r_constant.total_s", "s"),
    ("weights.a_r_constant.calls", "count"),
    ("norms.LqTable.build_s", "s"),
    ("norms.LqTable.builds", "count"),
    ("norms.amalgam_norm.self_s", "s"),
    ("norms.amalgam_norm.calls", "count"),
    ("norms.lq_norm.self_s", "s"),
    ("norms.lq_norm.calls", "count"),
    ("norms.weak_norm.self_s", "s"),
    ("norms.weak_norm.calls", "count"),
    ("weights.thm21_condition.self_s", "s"),
    ("weights.thm21_condition.total_s", "s"),
    ("weights.thm21_condition.calls", "count"),
    ("weights.thm21_condition.intervals", "count"),
    ("weights.a_infty_epsilon_delta.self_s", "s"),
    ("weights.a_infty_epsilon_delta.calls", "count"),
    ("measure.growth_constant.self_s", "s"),
    ("measure.growth_constant.calls", "count"),
    ("covering.random_family.self_s", "s"),
    ("covering.random_family.calls", "count"),
    ("covering.random_family.intervals", "count"),
    ("covering.select_cover.self_s", "s"),
    ("covering.select_cover.calls", "count"),
    ("harness.verify_scenario.self_s", "s"),
    ("harness.write_report.self_s", "s"),
    ("harness.write_report.bytes", "bytes"),
    ("harness.load_scenario.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("process.cpu_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
]
_STAT_ALIAS = {"build_s": "self_s", "builds": "calls"}
# Share of the traced pass that may fall outside every layer span (the
# benchmark's own loop, hashing and file reads).
MAX_UNATTRIBUTED = 0.1


def bootstrap():
    """Import amalgam from this checkout's source tree, one BLAS thread."""
    if not (SRC / "amalgam" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        sys.exit(f"perfbench: no amalgam source tree and scenarios/ under {ROOT}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import amalgam
    if Path(amalgam.__file__).resolve().parent != SRC / "amalgam":
        sys.exit(f"perfbench: imported amalgam from {amalgam.__file__}, "
                 f"not from {SRC}")


# ---------------------------------------------------------------------------
# inputs


def scenario_paths() -> list[Path]:
    paths = sorted(SCENARIOS.glob("*.json"))
    if not paths:
        sys.exit(f"perfbench: no scenario files under {SCENARIOS}")
    return paths


def make_queries(seed: int) -> list[list[str]]:
    """QUERY_MIX argv lists in the README's forms, drawn from the seed.

    Each numeric parameter of a kind takes one draw from each of n equal
    strata of its range, and each choice cycles through its options, so
    every seed spans the same ranges and only the values differ.
    """
    rng = random.Random(seed)

    def strata(n, lo, hi):
        vals = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
        rng.shuffle(vals)
        return vals

    def cycle(n, options):
        vals = [options[i % len(options)] for i in range(n)]
        rng.shuffle(vals)
        return vals

    def measures(n):
        return ["lebesgue" if kind == "lebesgue" else f"power:{a:.3f}"
                for kind, a in zip(cycle(n, ["lebesgue", "power"]),
                                   strata(n, 0.1, 0.6))]

    def functions(n):
        out = []
        for kind, a, w, h in zip(cycle(n, ["indicator", "tent"]),
                                 strata(n, -2.0, 1.0), strata(n, 0.25, 2.0),
                                 strata(n, 0.5, 3.0)):
            spec = f"{kind}:{a:.3f}:{a + w:.3f}"
            out.append(spec if kind == "indicator" else f"{spec}:{h:.3f}")
        return out

    def numbers(n, lo, hi):
        return [f"{v:.3f}" for v in strata(n, lo, hi)]

    def potential(n):
        return [["potential", "--measure", m, "--function", f,
                 "--kernel", f"riesz:{g}", "--x", x]
                for m, f, g, x in zip(measures(n), functions(n),
                                      numbers(n, 0.3, 0.8),
                                      numbers(n, -4.0, 4.0))]

    def cover(n):
        return [["cover", "--measure", m, "--random", "1",
                 "--seed", str(rng.randrange(10 ** 6))] for m in measures(n)]

    def maximal(n):
        return [["maximal", "--measure", m, "--function", f, "--q", "1",
                 "--beta", beta, "--x", x]
                for m, f, beta, x in zip(measures(n), functions(n),
                                         cycle(n, ["2", "4", "inf"]),
                                         numbers(n, -4.0, 4.0))]

    def norm(n):
        return [["norm", "--measure", m, "--function", f, "--q", "1",
                 "--p", p, "--alpha", alpha, "--r", r]
                for m, f, p, alpha, r in zip(measures(n), functions(n),
                                             cycle(n, ["2", "inf"]),
                                             cycle(n, ["1", "2"]),
                                             numbers(n, 0.5, 2.0))]

    def weight(n):
        # |x|^b stays well inside the A_r class of |x|^-a dx (a <= 0.6):
        # near b - a = -1 the weight is barely integrable and the
        # interval scan reports an infinite, diverging constant.
        return [["weight", "--measure", m, "--weight", f"power:{b}",
                 "--r", r]
                for m, b, r in zip(measures(n), numbers(n, -0.25, 0.25),
                                   cycle(n, ["2", "3"]))]

    kinds = {"potential": potential, "cover": cover, "maximal": maximal,
             "norm": norm, "weight": weight}
    queries = [q for kind, n in QUERY_MIX.items() for q in kinds[kind](n)]
    rng.shuffle(queries)
    return queries


def setup_probe(workload: str, seed: int) -> None:
    """What setup_s times: import amalgam and parse the workload's inputs."""
    bootstrap()
    if workload == "point_queries":
        from amalgam import cli
        parser = cli.build_parser()
        for argv in make_queries(seed):
            parser.parse_args(argv)
    else:
        from amalgam import harness
        for path in scenario_paths():
            harness.load_scenario(path)


def setup_seconds(workload: str, seed: int, count: int) -> list[tuple]:
    """(wall time, reference time before, reference time after) of each
    of `count` fresh interpreters running setup_probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-probe"]
    probes = []
    for _ in range(count):
        before = reference()
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        wall = perf_counter() - t0
        probes.append((wall, before, reference()))
    return probes


def reference() -> float:
    """Seconds taken by a fixed computation that, like the program, mixes
    small numpy array operations with interpreted scalar loops.  Its time
    follows the host's momentary speed and nothing of amalgam."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 1500)
    t0 = perf_counter()
    acc = 0.0
    for k in range(60):
        y = np.exp(-x * (k % 7 + 1)) * np.sin(x * k)
        acc += float(np.dot(y, y))
    for j in range(20000):
        acc += (j * 0.5) ** 0.5 % 3.0
    if not math.isfinite(acc):
        raise RuntimeError("reference computation lost its value")
    return perf_counter() - t0


def normalized(seconds: float, refs) -> float:
    """`seconds` scaled to a host that runs reference() in REF_S, given
    the reference times measured around them."""
    return seconds * REF_S / statistics.median(refs)


# ---------------------------------------------------------------------------
# passes


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def scenario_pass(paths, seed: int, scale: int, outdir: Path,
                  calibrate: bool) -> dict:
    """Load, verify and write each scenario once.  Suite scenarios must
    pass; reject_* ones must raise HypothesisRejected.  With `calibrate`,
    reference() runs before each item and after the last."""
    from amalgam import harness
    items, outputs, refs, failed = {}, {}, [], 0
    for path in paths:
        if calibrate:
            refs.append(reference())
        t0 = perf_counter()
        scn = harness.load_scenario(path)
        scn.seed = seed
        expect_reject = path.stem.startswith("reject_")
        try:
            report = harness.verify_scenario(scn, base_scale=scale)
        except harness.HypothesisRejected:
            out = {"status": "rejected"}
            failed += not expect_reject
        except (harness.NumericalFailure, harness.DivergenceError,
                harness.QuadratureError) as e:
            out = {"status": f"error {type(e).__name__}: {e}"}
            failed += 1
        else:
            jpath, cpath = harness.write_report(report, outdir, stem=path.stem)
            out = {"status": report.verdict,
                   "empirical_constant": repr(report.empirical_constant),
                   "report_json_sha256": _sha256(jpath),
                   "report_csv_sha256": _sha256(cpath)}
            failed += expect_reject or report.verdict != "pass"
        items[path.stem] = perf_counter() - t0
        outputs[path.stem] = out
    if calibrate:
        refs.append(reference())
    return {"items": items, "outputs": outputs, "refs": refs,
            "failed": failed}


def _finite_number(text: str) -> bool:
    try:
        return math.isfinite(float(text.split()[0]))
    except (IndexError, ValueError):
        return False


def query_pass(queries, calibrate: bool) -> dict:
    """Run each argv through cli.main; it must exit 0 and print a finite
    number first.  `calibrate` as in scenario_pass."""
    from amalgam import cli
    items, outputs, refs, failed = {}, {}, [], 0
    for i, argv in enumerate(queries):
        key = f"{i:03d} {' '.join(argv)}"
        if calibrate:
            refs.append(reference())
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(argv)
            items[key] = perf_counter() - t0
        text = out.getvalue()
        outputs[key] = {"exit": code, "stdout": text}
        failed += code != 0 or not _finite_number(text)
    if calibrate:
        refs.append(reference())
    return {"items": items, "outputs": outputs, "refs": refs,
            "failed": failed}


def timed_pass(one_pass, outdir: Path, calibrate: bool = False) -> dict:
    t0 = perf_counter()
    result = one_pass(outdir, calibrate)
    result["wall_s"] = perf_counter() - t0
    return result


def normalized_items(p: dict) -> dict:
    """Each item's time in the pass, normalized by the two references
    before it and the two after it (refs[i] runs just before item i,
    refs[i + 1] just after); the median of four shrugs off one reference
    that a momentary stall hit."""
    refs = p["refs"]
    return {k: normalized(t, refs[max(0, i - 1):i + 3])
            for i, (k, t) in enumerate(p["items"].items())}


def _mismatches(ref: dict, other: dict) -> int:
    return sum(ref.get(k) != other.get(k) for k in set(ref) | set(other))


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    items beyond it; the maximum when there are ten items or fewer."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# main


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "point_queries":
        inputs = make_queries(seed)
        scale = None

        def one_pass(_outdir, calibrate):
            return query_pass(inputs, calibrate)
    else:
        inputs = scenario_paths()
        scale = SWEEP_SCALE

        def one_pass(outdir, calibrate):
            return scenario_pass(inputs, seed, scale, outdir, calibrate)

    env = environment()
    # Half the set-up probes run before the passes and half after, so
    # their median spans the run rather than one moment of it.
    setup = [] if trace else setup_seconds(workload, seed, SETUP_PROBES // 2)
    TMP.mkdir(exist_ok=True)
    passes, checks, layer_metrics = [], [], {}
    with tempfile.TemporaryDirectory(dir=TMP) as tmp:
        if trace:
            import layers
            passes.append(timed_pass(one_pass, Path(tmp, "plain")))
            tracer = layers.Tracer()
            layers.install(tracer)
            cpu0 = process_time()
            passes.append(timed_pass(one_pass, Path(tmp, "traced")))
            cpu_s = process_time() - cpu0
            layer_metrics = layer_values(tracer, passes, cpu_s)
            checks = span_checks(tracer, passes[1]["wall_s"])
        else:
            start = perf_counter()
            while (len(passes) < MIN_PASSES or perf_counter() - start
                   + passes[-1]["wall_s"] <= seconds):
                passes.append(timed_pass(one_pass, Path(tmp, f"p{len(passes)}"),
                                         calibrate=True))
            setup += setup_seconds(workload, seed, SETUP_PROBES - len(setup))
    with contextlib.suppress(OSError):
        TMP.rmdir()

    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    # Every pass (the traced one included) must reproduce the first
    # pass's outputs: report bytes for scenarios, stdout for queries.
    failed += sum(_mismatches(passes[0]["outputs"], p["outputs"])
                  for p in passes[1:])
    failed += len(checks)

    timed = passes[:1] if trace else passes
    raw = {k: statistics.median(p["items"][k] for p in timed)
           for k in timed[0]["items"]}
    if trace:
        scaled, refs = {}, []
        tail_pct = tail(raw.values())[1]
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        # Each item counts at its median normalized time over the passes.
        per_pass = [normalized_items(p) for p in passes]
        scaled = {k: statistics.median(n[k] for n in per_pass) for k in raw}
        refs = [r for p in passes for r in p["refs"]]
        tail_s, tail_pct = tail(scaled.values())
        values = {
            "wall_s": sum(scaled.values()),
            "item_p50_s": statistics.median(scaled.values()),
            "item_tail_s": tail_s,
            "setup_s": statistics.median(normalized(wall, around)
                                         for wall, *around in setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "grid_scale": scale, "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_items_s": [list(p["items"].values()) for p in passes],
        "items": len(raw), "item_tail_percentile": tail_pct,
        "item_median_raw_s": raw, "item_median_normalized_s": scaled,
        "ref_s": REF_S, "reference_s": refs, "setup_probes": setup,
        "failed_frac": failed / attempted, "failed_checks": checks,
        "environment": env, "outputs": passes[0]["outputs"],
    }
    return {"record": record,
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def layer_values(tracer, passes, cpu_s: float) -> dict:
    plain_wall, traced_wall = passes[0]["wall_s"], passes[1]["wall_s"]
    values = {"process.cpu_s": cpu_s, "trace.wall_s": traced_wall,
              "trace.overhead_frac": traced_wall / plain_wall - 1.0,
              "trace.unattributed_frac":
                  1.0 - tracer.self_total() / traced_wall}
    for name, _ in PER_LAYER:
        if name not in values:
            layer, stat = name.rsplit(".", 1)
            values[name] = tracer.stats[layer].get(_STAT_ALIAS.get(stat, stat), 0)
    return values


def span_checks(tracer, traced_wall: float) -> list[str]:
    """Layer self times must add up to the top-level span time (no double
    counting of nested spans) and cover the traced pass."""
    problems = []
    total = tracer.self_total()
    if abs(total - tracer.top_s) > 1e-6 * max(tracer.top_s, 1.0):
        problems.append(f"self times sum to {total!r} s, top-level spans "
                        f"to {tracer.top_s!r} s")
    if total > traced_wall:
        problems.append(f"self times {total!r} s exceed the traced pass "
                        f"{traced_wall!r} s")
    if total < (1.0 - MAX_UNATTRIBUTED) * traced_wall:
        problems.append(f"self times {total!r} s cover less than "
                        f"{1.0 - MAX_UNATTRIBUTED:.0%} of the traced pass "
                        f"{traced_wall!r} s")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "point_queries"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    bootstrap()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in out["result"]["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {out['record']['failed_frac']:.6g} "
          f"({out['result']['failed']} of {out['result']['attempted']})")
    print(json.dumps({"record": out["record"]}, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

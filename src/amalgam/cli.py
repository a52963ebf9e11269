"""Command line front end.

Exit codes: 0 all verdicts pass, 1 numerical failure or failed verdict,
2 scenario rejected by a hypothesis gate, 3 malformed config or flags.

One-shot subcommands (norm, maximal, potential, weight, cover) take
compact colon-separated spec strings so quick checks need no scenario
file; verify and sweep consume scenario JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache, partial
from pathlib import Path

from .harness import (ConfigError, HypothesisRejected, NumericalFailure,
                      load_scenario, verify_scenario, write_report)
from .measure import DivergenceError, QuadratureError, make_measure
from .functions import make_function
from .norms import default_r_grid, amalgam_norm
from .operators import make_kernel, maximal, potential
from .weights import a_r_constant, make_weight
from .covering import random_family, select_cover

import numpy as np


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as config errors (exit 3)."""

    def error(self, message):
        raise ConfigError(message)


def _spec_from_string(text: str, kind_key: str, fields: dict) -> dict:
    """'name:v1:v2' to a spec dict using the per-kind field list."""
    parts = text.split(":")
    kind = parts[0]
    if kind not in fields:
        raise ConfigError(f"unknown {kind_key} {kind!r}; "
                          f"expected one of {sorted(fields)}")
    names = fields[kind]
    required = [n for n in names if not n.endswith("?")]
    vals = parts[1:]
    if not (len(required) <= len(vals) <= len(names)):
        raise ConfigError(
            f"{kind_key} {kind!r} takes {len(required)}..{len(names)} "
            f"values, got {len(vals)}")
    spec = {"kind": kind}
    for name, raw in zip(names, vals):
        try:
            spec[name.rstrip("?")] = float(raw)
        except ValueError as e:
            raise ConfigError(f"{kind_key} {text!r}: {e}") from e
    return spec


def parse_measure_spec(text: str) -> dict:
    return _spec_from_string(text, "measure", {"lebesgue": [], "power": ["a"]})


def parse_function_spec(text: str) -> dict:
    spec = _spec_from_string(text, "function", {
        "indicator": ["a", "b"],
        "tent": ["a", "b", "height?"],
        "power": ["exp", "lo", "hi", "coefficient?"],
        "riesz_kernel": ["gamma", "lo?", "hi?"],
    })
    if spec["kind"] == "power":
        spec["window"] = (spec.pop("lo"), spec.pop("hi"))
    if spec["kind"] == "riesz_kernel" and "lo" in spec:
        spec["window"] = (spec.pop("lo"), spec.pop("hi", 1.0))
    return spec


def parse_kernel_spec(text: str) -> dict:
    return _spec_from_string(text, "kernel", {"riesz": ["gamma"]})


def parse_weight_spec(text: str) -> dict:
    return _spec_from_string(text, "weight", {"one": [], "power": ["b"]})


def finite(text: str) -> float:
    """argparse type: a float other than nan and +-inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def positive_finite(text: str) -> float:
    """argparse type: a finite float above 0."""
    value = finite(text)
    if not value > 0.0:
        raise ValueError(text)
    return value


def non_negative_int(text: str) -> int:
    """argparse type: an int of at least 0."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def positive_int(text: str) -> int:
    """argparse type: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _print_value(v: float):
    print(float(f"{float(v):.12g}"))


def _cmd_norm(args) -> int:
    m = make_measure(parse_measure_spec(args.measure))
    f = make_function(parse_function_spec(args.function))
    grid = default_r_grid(m.mass(f.support))
    if args.r:
        grid = np.sort(np.concatenate([grid, np.asarray(args.r, float)]))
    value, r_star = amalgam_norm(m, f, args.q, args.p, args.alpha, r_grid=grid)
    _print_value(value)
    return 0


def _cmd_maximal(args) -> int:
    m = make_measure(parse_measure_spec(args.measure))
    f = make_function(parse_function_spec(args.function))
    _print_value(maximal(m, f, args.q, args.beta, args.x))
    return 0


def _cmd_potential(args) -> int:
    m = make_measure(parse_measure_spec(args.measure))
    f = make_function(parse_function_spec(args.function))
    k = make_kernel(parse_kernel_spec(args.kernel))
    _print_value(potential(m, f, k, args.x, tol=args.tol))
    return 0


def _cmd_weight(args) -> int:
    m = make_measure(parse_measure_spec(args.measure))
    w = make_weight(parse_weight_spec(args.weight))
    res = a_r_constant(m, w, args.r)
    flag = "diverging" if res.diverging else "finite"
    print(f"{res.constant:.12g} {flag}")
    return 0


def _cmd_cover(args) -> int:
    m = make_measure(parse_measure_spec(args.measure))
    done = select_cover(random_family(m, count=args.count,
                                      seed=range(args.seed, args.seed + args.random)))
    if done.failure is not None:
        raise AssertionError(done.failure[1])
    print(done.worst)
    return 0


def _verdict_code(verdict: str) -> int:
    return 0 if verdict in ("pass", "skip") else 1


def _cmd_verify(args) -> int:
    scn = load_scenario(args.scenario)
    if args.seed is not None:
        scn.seed = args.seed
    report = verify_scenario(scn, base_scale=args.grid_scale)
    if args.out:
        write_report(report, args.out)
    print(f"{scn.name} [{report.target}] {report.verdict}: "
          f"C={report.empirical_constant:.6g} "
          f"stability={report.refinement_stability:.3g} "
          f"homogeneity={'ok' if report.homogeneity_ok else 'BROKEN'}")
    return _verdict_code(report.verdict)


def _sweep_one(path: Path, seed, grid_scale):
    """One scenario file's summary entry (named by the file stem if the
    file is malformed), and its report if it was verified."""
    entry = {"scenario": path.stem, "target": None}
    try:
        scn = load_scenario(path)
        if seed is not None:
            scn.seed = seed
        entry = {"scenario": scn.name, "target": scn.target}
        report = verify_scenario(scn, base_scale=grid_scale)
    except HypothesisRejected as e:
        return dict(entry, status="rejected", reason=str(e)), None
    except (ConfigError, NumericalFailure, DivergenceError, QuadratureError) as e:
        return dict(entry, status="error", reason=str(e)), None
    return dict(entry, status=report.verdict, constant=report.empirical_constant,
                stability=report.refinement_stability), report


def _cmd_sweep(args) -> int:
    paths = [Path(p) for p in args.scenario]
    if args.dir:
        paths.extend(sorted(Path(args.dir).glob("*.json")))
    if not paths:
        raise ConfigError("sweep needs --scenario files or --dir")
    run = partial(_sweep_one, seed=args.seed, grid_scale=args.grid_scale)
    pool = None
    if args.jobs > 1:
        # Imported only here, as they would add several percent to the
        # CLI's import time.  Workers are spawned: forking a process that
        # has threads is unsafe.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=min(args.jobs, len(paths)),
                                   mp_context=multiprocessing.get_context("spawn"))
    summary, code = [], 0
    try:
        # Both maps yield in path order, so nothing below depends on --jobs.
        results = map(run, paths) if pool is None else pool.map(run, paths)
        for path, (entry, report) in zip(paths, results):
            if entry["status"] == "rejected":
                code = max(code, 2) if code != 1 else 1
            elif entry["status"] in ("error", "fail"):
                code = 1
            if report is not None and args.out:
                write_report(report, args.out, stem=path.stem)
            summary.append(entry)
            print(f"{entry['scenario']} [{entry['target'] or '?'}] {entry['status']}")
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep_summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return code


def build_parser() -> _Parser:
    top = _Parser(prog="amalgam", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="amalgam norm of a function")
    p.add_argument("--measure", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--r", action="append", type=float, default=[],
                   help="extra block scale(s) added to the scan grid")
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("maximal", help="maximal function at a point")
    p.add_argument("--measure", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--x", type=finite, required=True)
    p.set_defaults(fn=_cmd_maximal)

    p = sub.add_parser("potential", help="kernel potential at a point")
    p.add_argument("--measure", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--x", type=finite, required=True)
    p.add_argument("--tol", type=positive_finite, default=1e-8)
    p.set_defaults(fn=_cmd_potential)

    p = sub.add_parser("weight", help="interval condition constant")
    p.add_argument("--measure", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(fn=_cmd_weight)

    p = sub.add_parser("cover", help="random covering trials")
    p.add_argument("--measure", default="lebesgue")
    p.add_argument("--random", type=positive_int, required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--count", type=positive_int, default=40)
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("verify", help="run one scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=non_negative_int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--grid-scale", type=positive_int, default=1)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", help="run many scenario files")
    p.add_argument("--scenario", action="append", default=[])
    p.add_argument("--dir", default=None)
    p.add_argument("--seed", type=non_negative_int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--grid-scale", type=positive_int, default=1)
    p.add_argument("--jobs", type=positive_int, default=1,
                   help="verify this many scenarios at once, in worker processes")
    p.set_defaults(fn=_cmd_sweep)
    return top


@cache
def _parser() -> _Parser:
    """build_parser(), built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except HypothesisRejected as e:
        print(f"rejected: {e}", file=sys.stderr)
        return 2
    except (NumericalFailure, DivergenceError, QuadratureError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Scenario runner for the inequality suite: config in, verdicts out.

A scenario is a JSON block naming a target inequality plus the measure,
function family, weight, kernel and exponents it should be tested with.
Each target's exponents are checked against TARGET_RELATIONS first; its
gate then checks the other blocks and builds the measure, kernel and
grids, and its evaluator turns one function into rows.
One driver owns the rest: the family loop, the homogeneity probe, the
empirical constant, the argmax witness and the verdict.  Reports
serialize deterministically, so two runs with the same scenario and
seed are byte-identical.

Level sets of the sampled operators are measured by counting cells of a
midpoint grid in measure coordinates; weighted measures replace the
count with per-cell masses of the weight, each the integral of the
weight over its cell (measure._interval_integrals).  A supremum over
lambda of lambda^k times a level-set measure is taken exactly, at the
sampled values of the operator (norms._levels).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .covering import random_family, select_cover
from .functions import (RealFunction, make_function, power_twist, product,
                        scaled)
from .measure import (DivergenceError, QuadratureError, _interval_integrals,
                      growth_constant, lebesgue, make_interval, make_measure,
                      RadonMeasure)
from .norms import (Exponent, LqTables, _levels, _top, amalgam_norm,
                    default_r_grid, lq_norm, weak_norm)
from .operators import (Kernel, farfield_bound_check, make_kernel,
                        maximal_profile, potential_profile, riesz_kernel)
from .weights import (SubsetSampler, Weight, a_infty_epsilon_delta,
                      default_interval_family, make_weight, thm21_condition)

TOOL_VERSION = "0.1.0"

# Each target's exponent hypotheses, checked in order before its gate
# builds anything.  A relation is (chain, message): terms joined by "<="
# or "<".  A term is an exponent's name, read as its reciprocal ("q" is
# 1/q, but "a" and "gamma" are values), a number, or a compound: (x, y)
# is x - y, (x, "/", y) is x / y.  Plain terms compare exactly, as the
# operators do; a link with a compound has a slack of _EPS (relative) in
# "<=" and needs a margin above _EPS in "<".  (name, "=", term) with no
# message defines the exponent 1/name = term.
_GA = (("gamma", "a"), "/", (1, "a"))
_BETA_GT_1 = ((0, "<", (1, "beta")), "beta must exceed 1, got {beta:g}")
_ALPHA_LT_BETA = (("beta", "<", "alpha"), "need alpha < beta")
_Q_LE_ALPHA = (("alpha", "<=", "q"), "need q <= alpha")
_GAP = ((0, "<", ("q", "beta")), "need 1/q - 1/beta > 0")
_GAP_P_ALPHA = ((("q", "beta"), "<=", "p", "<=", "alpha"),
                "need 1/q - 1/beta <= 1/p <= 1/alpha")
_P_FROM_GAP = (("p", "=", ("q", "beta")), None)
_THM21 = ((("beta", "<=", "alpha", "<=", "q"), "need q <= alpha <= beta"),
          (("q1", "<=", "q"), "need q <= q1"),
          (("p1", "<=", "alpha1", "<=", "q1"), "need q1 <= alpha1 <= p1"),
          ((0, "<", ("q1", "beta")), "need 1/q1 - 1/beta > 0"))
_THM21_PART1 = _THM21 + (((("q1", "beta"), "<=", "p1"), "need 1/q1 - 1/beta <= 1/p1"),)
_PROP41 = (((0, "<", "a", "<", "gamma", "<", 1), "need 0 < a < gamma < 1"),
           ((_GA, "<", "alpha"), "need alpha < (1 - a)/(gamma - a)"))
TARGET_RELATIONS = {
    "thm21_part1": _THM21_PART1,
    "thm21_part2": _THM21_PART1 + (
        (("beta", "<", "alpha"), "part 2 needs alpha < beta"),),
    "cor23": (_ALPHA_LT_BETA, _Q_LE_ALPHA, _GAP, _GAP_P_ALPHA),
    "cor24": (_ALPHA_LT_BETA, (("alpha", "<", "q"), "need q < alpha")),
    "thm31_goodlambda": (_GAP, _P_FROM_GAP, (
        ("p", "<=", "alpha", "<=", "q"), "need q <= alpha <= p with 1/p = 1/q - 1/beta")),
    "lem32": (_GAP, _P_FROM_GAP),
    "lem33": ((("beta", "<=", "q"), "need q <= beta"), _BETA_GT_1),
    "prop34": (_BETA_GT_1, _THM21[0], _ALPHA_LT_BETA) + _THM21[1:],
    "cor35": (_BETA_GT_1, _Q_LE_ALPHA, _ALPHA_LT_BETA, _GAP_P_ALPHA),
    "cor36": (_BETA_GT_1, (("alpha", "<", 1), "need alpha > 1, got {alpha:g}"),
              ((0, "<", "beta"), "need beta < inf"), _ALPHA_LT_BETA,
              ((("alpha", "beta"), "<", "alpha"), "empty admissible (q, p) window"),
              ((("alpha", "beta"), "<", (1, "beta")), "empty admissible (q, p) window")),
    "prop41": _PROP41 + (_Q_LE_ALPHA, ((("q", _GA), "<=", "p", "<=", "alpha"),
                                       "need 1/theta <= 1/p <= 1/alpha")),
    "steinweiss": _PROP41 + (
        (("alpha", "<", 1), "the closing inequality needs alpha > 1"),),
    "norm_properties": ((("p", "<=", "alpha", "<=", "q"),
                         "need q <= alpha <= p for a nontrivial space"),),
    "covering_trials": ()}


def _reads(relations) -> tuple:
    """The exponents relations read from a scenario, in order of first use."""
    def names(term):
        if isinstance(term, tuple):
            return names(term[0]) + names(term[-1])
        return [term] if isinstance(term, str) else []

    defined = {chain[0] for chain, _ in relations if chain[1] == "="}
    read = (n for chain, _ in relations for term in chain[::2] for n in names(term))
    return tuple(dict.fromkeys(n for n in read if n not in defined))


# The exponents each target reads; eta is optional for prop41 and
# steinweiss, which check it against the value they derive.
TARGET_EXPONENTS = {t: _reads(rel) + (("eta",) if t in ("prop41", "steinweiss") else ())
                    for t, rel in TARGET_RELATIONS.items()}
TARGETS = tuple(TARGET_EXPONENTS)

DEFAULT_SAMPLES = 4096
DEFAULT_WINDOW_MASS = 8.0

# The verdict gates, fixed: thm31's exponents kappa, the largest relative
# drift of the constant under grid doubling, and how far an identity
# row's ratio may sit from 1.
KAPPAS = (0.5, 1.0, 2.0)
STABILITY_TOL = 0.2
IDENTITY_TOL = 1e-3

# covering_trials: intervals per family, and the ranges of their masses
# and of their centres, in measure coordinates.
COVER_COUNT = 40
COVER_MASSES = (0.5, 2.0)
COVER_CENTRES = (-4.0, 4.0)

# lem32: the heights a, as fractions of the potential's top, and the
# split factors b and c of its level set {Kf > ab, Mf <= ac}.
LEM32_A_FRACS = (0.3, 0.1)
LEM32_B_GRID = (2.0, 3.0, 4.0, 6.0)
LEM32_C_GRID = (0.05, 0.1, 0.2, 0.4, 0.8)

_EPS = 1e-12


class ConfigError(ValueError):
    """Malformed scenario file or spec string; mapped to exit code 3."""


class HypothesisRejected(RuntimeError):
    """Scenario parameters fall outside the target's hypothesis block.

    Raised before any inequality is evaluated; mapped to exit code 2.
    """


class NumericalFailure(RuntimeError):
    """Divergent or unusable numerics in an admissible scenario (exit 1)."""


def _require(cond: bool, msg: str):
    if not cond:
        raise HypothesisRejected(msg)


# ---------------------------------------------------------------------------
# scenario files


_ALLOWED_KEYS = {"name", "notes", "target", "measure", "functions", "weight",
                 "kernel", "exponents", "samples", "window_mass", "seed",
                 "options"}


@dataclass
class Scenario:
    """Parsed scenario file."""

    target: str
    measure: dict
    functions: list | None
    weight: dict | None
    kernel: dict | None
    exponents: dict
    samples: int
    window_mass: float
    seed: int
    options: dict
    name: str


def _is_number(v) -> bool:
    """An int or a float of JSON, not a boolean, and finite as a float:
    JSON reads 1e400 as inf, and an int can be too large for a float."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def parse_scenario(block: dict, name: str = "scenario") -> Scenario:
    def need(ok: bool, what: str):
        if not ok:
            raise ConfigError(f"{name}: {what}")

    need(isinstance(block, dict), "scenario must be a JSON object")
    unknown = sorted(set(block) - _ALLOWED_KEYS)
    need(not unknown, f"unknown field(s) {unknown}")
    target = block.get("target")
    need(target in TARGETS,
         f"field 'target' must be one of {list(TARGETS)}, got {target!r}")
    measure = block.get("measure")
    need(isinstance(measure, dict), "field 'measure' must be a spec object")
    functions = block.get("functions")
    need(functions is None or (isinstance(functions, list)
                               and all(isinstance(f, dict) for f in functions)),
         "field 'functions' must be a list of spec objects")
    for key in ("weight", "kernel"):
        need(block.get(key) is None or isinstance(block[key], dict),
             f"field {key!r} must be a spec object")
    exponents = block.get("exponents", {})
    need(isinstance(exponents, dict), "field 'exponents' must be an object")
    unknown = sorted(set(exponents) - set(TARGET_EXPONENTS[target]))
    need(not unknown, f"target {target!r} reads no exponent(s) {unknown}")
    samples = block.get("samples", DEFAULT_SAMPLES)
    need(isinstance(samples, int) and samples >= 16,
         "field 'samples' must be an int >= 16")
    window_mass = block.get("window_mass", DEFAULT_WINDOW_MASS)
    need(_is_number(window_mass) and window_mass > 0,
         "field 'window_mass' must be a positive number")
    seed = block.get("seed", 0)
    need(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
         "field 'seed' must be a non-negative int")
    options = block.get("options", {})
    need(isinstance(options, dict), "field 'options' must be an object")
    # Only covering_trials takes an option: trials, the families it draws.
    unknown = sorted(set(options) - ({"trials"} if target == "covering_trials" else set()))
    need(not unknown, f"unknown option(s) {unknown}")
    trials = options.get("trials", 1)
    need(isinstance(trials, int) and not isinstance(trials, bool) and trials >= 1,
         "options.trials must be an int >= 1")
    return Scenario(target=target, measure=measure, functions=functions,
                    weight=block.get("weight"), kernel=block.get("kernel"),
                    exponents=exponents, samples=samples,
                    window_mass=float(window_mass), seed=seed, options=options,
                    name=str(block.get("name", name)))


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ConfigError(f"{path}: {e}") from e
    try:
        block = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    return parse_scenario(block, name=p.stem)


# ---------------------------------------------------------------------------
# instantiation and common gating


def _value(term, ex: dict) -> float:
    """A term of TARGET_RELATIONS over the exponents ex."""
    if isinstance(term, tuple):
        lo, hi = _value(term[0], ex), _value(term[-1], ex)
        return lo / hi if len(term) == 3 else lo - hi
    if isinstance(term, str):
        return ex[term].recip if isinstance(ex[term], Exponent) else ex[term]
    return float(term)


def _holds(lo, op: str, hi, ex: dict) -> bool:
    """One link of a relation chain, by TARGET_RELATIONS' comparison rule."""
    a, b = _value(lo, ex), _value(hi, ex)
    if isinstance(lo, tuple) or isinstance(hi, tuple):
        return a <= b + _EPS * max(1.0, abs(a), abs(b)) if op == "<=" else b - a > _EPS
    return a <= b if op == "<=" else a < b


def _exponents(scn: Scenario) -> SimpleNamespace:
    """Every exponent the target reads (eta only when given): a and gamma
    as reals, the rest as Exponents, plus those its relations define.
    Each relation of TARGET_RELATIONS is checked, in order, first."""
    ex = {}
    for key in TARGET_EXPONENTS[scn.target]:
        if key not in scn.exponents:
            if key == "eta":
                continue
            raise ConfigError(f"{scn.name}: target {scn.target!r} needs exponents.{key}")
        v, real = scn.exponents[key], key in ("a", "gamma")
        if not (_is_number(v) or (isinstance(v, str) and not real)):
            raise ConfigError(f"{scn.name}: exponents.{key} must be a number"
                              + ("" if real else " or 'inf'"))
        try:
            ex[key] = float(v) if real else Exponent.of(v)
        except ValueError as e:
            raise ConfigError(f"{scn.name}: exponents.{key}: {e}") from e
    for chain, msg in TARGET_RELATIONS[scn.target]:
        if chain[1] == "=":
            ex[chain[0]] = Exponent.from_recip(_value(chain[2], ex))
        elif not all(_holds(lo, op, hi, ex) for lo, op, hi
                     in zip(chain[::2], chain[1::2], chain[2::2])):
            raise HypothesisRejected(msg.format(
                **{k: getattr(v, "value", v) for k, v in ex.items()}))
    return SimpleNamespace(**ex)


def _build(scn: Scenario, what: str, make, spec):
    """make(spec), with a malformed spec reported as a config error."""
    try:
        return make(spec)
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"{scn.name}: {what}: {e}") from e


def _scenario_measure(scn: Scenario) -> RadonMeasure:
    return _build(scn, "measure", make_measure, scn.measure)


def _scenario_weight(scn: Scenario) -> Weight:
    spec = scn.weight if scn.weight is not None else {"kind": "one"}
    return _build(scn, "weight", make_weight, spec)


def _scenario_kernel(scn: Scenario) -> Kernel:
    if scn.kernel is None:
        raise ConfigError(f"{scn.name}: target {scn.target!r} needs a kernel block")
    return _build(scn, "kernel", make_kernel, scn.kernel)


def _scenario_functions(scn: Scenario) -> list[RealFunction]:
    if not scn.functions:
        raise ConfigError(f"{scn.name}: target {scn.target!r} needs a functions list")
    return [_build(scn, f"functions[{i}]", make_function, spec)
            for i, spec in enumerate(scn.functions)]


def _fv(f: RealFunction, wgt: Weight) -> RealFunction:
    """f * v; the identity weight short-circuits to f itself."""
    if wgt.spec.get("kind") == "one":
        return f
    v = wgt.fn
    return product(f, v.eval, label=f"{f.label}*{v.label}",
                   extra_singularities=v.singularities,
                   extra_breakpoints=v.breakpoints)


def _kernel_eta_gate(m: RadonMeasure, k: Kernel, beta: Exponent):
    """Require k in weak L^eta(mu) with 1/eta = 1 - 1/beta.

    For a power kernel the admissible eta is pinned exactly by the
    measure's scaling, so the gate is an exponent match rather than a
    sampled norm (a window-truncated sample hides half of the failure
    modes).  Bounded compactly supported kernels pass for every eta.
    """
    if k.singular_exponent is not None and m.kind in ("lebesgue", "power"):
        gamma = 1.0 + k.singular_exponent
        a = m.a if m.kind == "power" else 0.0
        required = (1.0 - gamma) / (1.0 - a)
        _require(abs(1.0 - beta.recip - required) <= 1e-9,
                 f"kernel decay needs 1/eta = {required:g}, scenario beta "
                 f"gives {1.0 - beta.recip:g}")


def _growth_gate(m: RadonMeasure) -> float:
    g = growth_constant(m)
    _require(math.isfinite(g), "measure growth constant is not finite")
    return g


def _tail_gate(scn: Scenario, m: RadonMeasure, t_lo: float, t_hi: float):
    """Require F^-1 finite on the scanned masses [t_lo, t_hi].

    A tail such as a 1/|x| density of small weight at the window edge
    takes the mass beyond the largest double: F^-1 overflows to -inf or
    inf there, and a scan would sit at infinite x.  F^-1 increases, so
    its two ends decide.
    """
    for tail, t in (("left", t_lo), ("right", t_hi)):
        with np.errstate(over="ignore"):
            x = m.inv_cdf(float(t))
        _require(math.isfinite(x), f"{scn.name}: measure: F^-1 overflows in "
                 f"the {tail} tail at the scanned mass {t:g}")


def _gate_family(scn: Scenario, m: RadonMeasure, gs: int):
    # Its intervals reach 16 in mass on either side of F(0).
    t0 = m.cdf(0.0)
    _tail_gate(scn, m, t0 - 16.0, t0 + 16.0)
    return default_interval_family(m, span_mass=16.0, centers=12 * gs, scales=5)


def _weight_gate(scn: Scenario, m: RadonMeasure, wgt: Weight, q, q1, beta, gs: int):
    try:
        cond = thm21_condition(m, wgt, q, q1, beta, _gate_family(scn, m, gs))
    except ValueError as e:
        raise HypothesisRejected(f"{scn.name}: weight: {e}") from e
    _require(math.isfinite(cond.constant) and not cond.diverging,
             f"{scn.name}: weight condition diverges over the interval family")
    return cond


# ---------------------------------------------------------------------------
# sample grids and lambda grids


@dataclass(frozen=True)
class SampleGrid:
    """Midpoint grid in measure coordinates over [-W, W] in mass."""

    ts: np.ndarray
    xs: np.ndarray
    cell: float
    t_lo: float
    t_hi: float


def sample_grid(m: RadonMeasure, window_mass: float, samples: int) -> SampleGrid:
    t_lo, t_hi = -float(window_mass), float(window_mass)
    cell = (t_hi - t_lo) / samples
    ts = t_lo + cell * (np.arange(samples) + 0.5)
    xs = np.asarray(m.inv_cdf(ts), float)
    return SampleGrid(ts=ts, xs=xs, cell=cell, t_lo=t_lo, t_hi=t_hi)


def _scenario_grid(scn: Scenario, m: RadonMeasure, gs: int) -> SampleGrid:
    _tail_gate(scn, m, -scn.window_mass, scn.window_mass)
    return sample_grid(m, scn.window_mass, scn.samples * gs)


def weight_cell_masses(m: RadonMeasure, wfn: RealFunction, grid: SampleGrid) -> np.ndarray:
    """Integral of the weight over each grid cell, each cell on its own
    (measure._interval_integrals)."""
    edges = np.concatenate([grid.ts - grid.cell / 2.0, [grid.t_hi]])
    return _interval_integrals(m, wfn, edges[:-1], edges[1:])


def _ratio(lhs, rhs) -> np.ndarray:
    """lhs / rhs elementwise; 0 where lhs = 0, else inf where rhs is not > 0."""
    lhs, rhs = np.asarray(lhs, float), np.asarray(rhs, float)
    with np.errstate(all="ignore"):
        return np.where(lhs == 0.0, 0.0, np.where(rhs > 0.0, lhs / rhs, math.inf))


def _row(function: str, lam, lhs: float, rhs: float, note: str = "") -> dict:
    return {"function": function, "lam": None if lam is None else float(lam),
            "lhs": float(lhs), "rhs_core": float(rhs),
            "ratio": float(_ratio(lhs, rhs)), "note": note}


def _homog_ok(r1: float, r2: float, tol: float = 1e-9) -> bool:
    if not (math.isfinite(r1) and math.isfinite(r2)):
        return r1 == r2
    return abs(r1 - r2) <= tol * max(1.0, abs(r1), abs(r2))


def _potential(m: RadonMeasure, f: RealFunction, k: Kernel, xs: np.ndarray,
               gs: int) -> np.ndarray:
    try:
        return potential_profile(m, f, k, xs, base_panels=24 * gs)
    except (DivergenceError, QuadratureError) as e:
        raise NumericalFailure(f"potential of {f.label} diverges: {e}") from e


def _lq_or_inf(m, f, q) -> float:
    try:
        return lq_norm(m, f, f.support, q)
    except (DivergenceError, QuadratureError):
        return math.inf


# ---------------------------------------------------------------------------
# reports


@dataclass
class VerificationReport:
    target: str
    verdict: str
    empirical_constant: float
    refinement_stability: float
    homogeneity_ok: bool
    witness: dict
    rows: list
    details: dict
    meta: dict

    def to_dict(self) -> dict:
        return _json_safe(vars(self))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _json_safe(obj):
    """Plain JSON types only; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return {math.inf: "inf", -math.inf: "-inf"}.get(obj, "nan")
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    return obj


def write_report(report: VerificationReport, outdir, stem: str = "report"):
    """report.json plus a flat CSV, one line per row, in outdir."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    jpath = out / f"{stem}.json"
    jpath.write_text(report.to_json())
    cpath = out / f"{stem}.csv"
    keys = ("version", "seed", "samples", "grid_scale")
    with open(cpath, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["target", "function", "lam", "lhs", "rhs_core", "ratio", "note",
                     *keys])
        for r in report.rows:
            lam = "" if r.get("lam") is None else repr(float(r["lam"]))
            wr.writerow([report.target, r["function"], lam, repr(float(r["lhs"])),
                         repr(float(r["rhs_core"])), repr(float(r["ratio"])),
                         r.get("note", ""), *(report.meta[k] for k in keys)])
    return jpath, cpath


def _finish(scn: Scenario, gs: int, rows: list, constant: float, details: dict,
            homo: bool, rows_ok: bool, verdict: str | None = None,
            pool: list | None = None) -> VerificationReport:
    """The report; the witness is the worst row of pool (default: rows)."""
    witness = max(rows if pool is None else pool, key=lambda r: r["ratio"], default={})
    if verdict is None:
        ok = math.isfinite(constant) and homo and rows_ok
        verdict = "pass" if ok else "fail"
    return VerificationReport(
        target=scn.target, verdict=verdict, empirical_constant=float(constant),
        refinement_stability=0.0, homogeneity_ok=bool(homo),
        witness=dict(witness), rows=rows, details=details,
        meta={"version": TOOL_VERSION, "seed": scn.seed, "scenario": scn.name,
              "target": scn.target, "grid_scale": gs,
              "samples": scn.samples * gs, "window_mass": scn.window_mass})


# ---------------------------------------------------------------------------
# the driver, and one gate with its evaluator per target


class _Eval(NamedTuple):
    """f's rows; the homogeneity probe compares row `probe`; extra holds
    f's entries of the report details."""

    rows: list
    probe: int | None = 0
    extra: dict | None = None


class _Plan(NamedTuple):
    """A gate's output: the report details, the evaluator, and (lem32's)
    a last pass over the rows that may set the verdict."""

    details: dict
    evaluate: Callable[[RealFunction], _Eval]
    finish: Callable[[list], str | None] | None = None


def _amalgam(m, f: RealFunction, q, p, alpha, gs: int, tables: LqTables) -> float:
    r_grid = default_r_grid(m.mass(f.support), 64 * gs)
    # At alpha = p amalgam_norm scans no scale and reads no table.
    table = None if Exponent.of(alpha) == Exponent.of(p) else tables.get(m, f, q)
    return amalgam_norm(m, f, q, p, alpha, r_grid=r_grid, table=table)[0]


def _weighted_rows(f: RealFunction, prof: np.ndarray, wmass: np.ndarray,
                   inv_theta: float, rhs) -> _Eval:
    """sup over lam of (sum of wmass over {prof > lam})^(1/theta) / rhs(lam):
    one row, at the level that attains it."""
    lams, sums = _levels(wmass, prof, 1e-3 * _top(prof))
    lhs, rhs_core = sums ** inv_theta, rhs(lams)
    i = int(np.argmax(_ratio(lhs, rhs_core)))
    return _Eval([_row(f.label, lams[i], lhs[i], rhs_core[i])])


def _weak_rows(f: RealFunction, prof: np.ndarray, cell: float, inv_s: float,
               rhs_notes: list) -> _Eval:
    """sup over lam of lam * mu{prof > lam}^(1/s), mu in grid cells, against
    each (rhs, note): one row per note, at the level that attains it."""
    lams, mus = _levels(np.full(prof.shape, cell), prof, 1e-3 * _top(prof))
    lhs = lams * mus ** inv_s
    i = int(np.argmax(lhs))
    return _Eval([_row(f.label, lams[i], lhs[i], rhs, note) for rhs, note in rhs_notes])


def run_scenario(scn: Scenario, grid_scale: int = 1, check_homogeneity: bool = True,
                 *, tables: LqTables | None = None) -> VerificationReport:
    """The target's gate, then its evaluator on each function, with f's
    LqTables served from tables (default: a new set).  The probe reruns
    the first function as 2f, where both sides scale alike.
    Side checks (bounded notes need ratio <= 1, identity rows ratio 1)
    stay out of the constant and the witness; prop41's part-2 rows count
    toward the constant, but the witness is a part-1 row."""
    if scn.target == "covering_trials":
        return _covering_trials(scn, grid_scale)
    plan = _GATES[scn.target](scn, _exponents(scn), grid_scale,
                              LqTables() if tables is None else tables)
    rows, homo = [], True
    for fi, f in enumerate(_scenario_functions(scn)):
        ev = plan.evaluate(f)
        for key, val in (ev.extra or {}).items():
            if isinstance(val, dict):
                plan.details[key].update(val)
            else:
                plan.details[key].extend(val)
        if check_homogeneity and fi == 0 and ev.probe is not None:
            rows2 = plan.evaluate(scaled(f, 2.0)).rows
            homo = _homog_ok(ev.rows[ev.probe]["ratio"], rows2[ev.probe]["ratio"])
        rows += ev.rows
    verdict = plan.finish(rows) if plan.finish is not None else None

    bounded = ("weak_le_full", "chain", "weak_le_strong", "p_monotone")
    rows_ok = not any(r["ratio"] > 1.0 + 1e-9 for r in rows if r["note"] in bounded)
    rows_ok = rows_ok and not any(abs(r["ratio"] - 1.0) > IDENTITY_TOL
                                  for r in rows if r["note"] == "identity")
    tested = [r for r in rows if r["note"] not in bounded + ("identity",)]
    constant = max((r["ratio"] for r in tested), default=0.0)
    return _finish(scn, grid_scale, rows, constant, plan.details, homo, rows_ok,
                   verdict, pool=[r for r in tested if r["note"] != "part2"])


def verify_scenario(scn: Scenario, base_scale: int = 1) -> VerificationReport:
    """Base run plus a doubled-grid rerun, sharing one LqTables (f's tables
    have 4096 cells at every grid scale); the relative drift of the
    empirical constant becomes refinement_stability, and a pass with a
    drift above STABILITY_TOL becomes a fail."""
    tables = LqTables()
    report = run_scenario(scn, base_scale, True, tables=tables)
    report.meta["stability_tol"] = STABILITY_TOL
    if report.verdict == "skip":
        return report
    refined = run_scenario(scn, 2 * base_scale, False, tables=tables)
    c1, c2 = report.empirical_constant, refined.empirical_constant
    if c1 == 0.0 and c2 == 0.0:
        rel = 0.0
    elif math.isfinite(c1) and math.isfinite(c2):
        rel = abs(c2 - c1) / max(c1, c2)
    else:
        rel = math.inf
    report.refinement_stability = rel
    report.details["refined_constant"] = c2
    if report.verdict == "pass" and rel > STABILITY_TOL:
        report.verdict = "fail"
    return report


def _thm21(scn: Scenario, ex, gs: int, tables: LqTables) -> _Plan:
    """Weighted weak bound for the maximal operator, both variants.

    Part 1 compares (sum of v^theta over the level set)^(1/theta) with
    the q1 mean of fv over lambda; part 2 swaps the right side for the
    amalgam/weak product with the interpolation exponent.
    """
    part2 = scn.target == "thm21_part2"
    inv_theta = ex.q1.recip - ex.beta.recip
    if part2:
        inv_s = ex.alpha.recip - ex.beta.recip
        expo = (ex.q1.recip - ex.alpha1.recip) / inv_s
    theta = 1.0 / inv_theta

    m = _scenario_measure(scn)
    wgt = _scenario_weight(scn)
    cond = _weight_gate(scn, m, wgt, ex.q, ex.q1, ex.beta, gs)
    grid = _scenario_grid(scn, m, gs)
    wmass = weight_cell_masses(m, wgt.powered(theta), grid)
    details = {"theta": theta, "weight_condition": cond.constant,
               "weight_intervals": cond.interval_count}
    if part2:
        details.update(s=1.0 / inv_s, interpolation_exponent=expo)

    def evaluate(f):
        fv = _fv(f, wgt)
        prof = maximal_profile(m, f, ex.q, ex.beta, grid.xs, table=tables.get(m, f, ex.q))
        if part2:
            a1 = _amalgam(m, fv, ex.q1, ex.p1, ex.alpha1, gs, tables)
            a2 = _amalgam(m, f, ex.q, "inf", ex.alpha, gs, tables)
            return _weighted_rows(f, prof, wmass, inv_theta,
                                  lambda lam: (a1 / lam) * (a2 / lam) ** expo)
        base = _lq_or_inf(m, fv, ex.q1)
        return _weighted_rows(f, prof, wmass, inv_theta, lambda lam: base / lam)

    return _Plan(details, evaluate)


def _cor23_24(scn: Scenario, ex, gs: int, tables: LqTables) -> _Plan:
    """Weak (strong) s-norm of the sampled maximal function against the
    amalgam (Lebesgue) norm of the input."""
    cor24 = scn.target == "cor24"
    inv_s = ex.alpha.recip - ex.beta.recip
    s = 1.0 / inv_s

    m = _scenario_measure(scn)
    grid = _scenario_grid(scn, m, gs)

    def evaluate(f):
        prof = maximal_profile(m, f, ex.q, ex.beta, grid.xs, table=tables.get(m, f, ex.q))
        if cor24:
            strong = float(np.sum(prof ** s) * grid.cell) ** inv_s
            return _Eval([_row(f.label, None, strong, _lq_or_inf(m, f, ex.alpha))])
        rhs = _amalgam(m, f, ex.q, ex.p, ex.alpha, gs, tables)
        return _weak_rows(f, prof, grid.cell, inv_s, [(rhs, "")])

    return _Plan({"s": s}, evaluate)


def _thm31_goodlambda(scn: Scenario, ex, gs: int, tables: LqTables) -> _Plan:
    """sup lam^kappa rho{Kf > lam} against the same sup for the maximal
    function, rho = w dmu, one row per (f, kappa).  Both sups run over
    lam >= one shared floor, each side up to its own top."""
    m = _scenario_measure(scn)
    growth = _growth_gate(m)
    k = _scenario_kernel(scn)
    _kernel_eta_gate(m, k, ex.beta)
    wgt = _scenario_weight(scn)
    small_fam = _gate_family(scn, m, gs)[: 18 * gs]
    sampler = SubsetSampler(seed=scn.seed, strata=(0.05, 0.15, 0.4, 0.8),
                            draws_per_stratum=1)
    try:
        delta_hat = a_infty_epsilon_delta(m, wgt, 0.5, small_fam, sampler)
    except ValueError as e:
        raise HypothesisRejected(f"{scn.name}: weight: {e}") from e
    _require(delta_hat > 0.0,
             f"{scn.name}: weight failed the mass-concentration sampling")

    grid = _scenario_grid(scn, m, gs)
    wmass = weight_cell_masses(m, wgt.fn, grid)
    details = {"growth_constant": growth, "delta_hat": delta_hat, "eps": 0.5,
               "p": ex.p.value, "amalgam_norms": {}}

    def evaluate(f):
        af = _amalgam(m, f, ex.q, ex.p, ex.alpha, gs, tables)
        _require(math.isfinite(af), f"{f.label} has infinite amalgam norm")
        kprof = _potential(m, f, k, grid.xs, gs)
        mprof = maximal_profile(m, f, ex.q, ex.beta, grid.xs, table=tables.get(m, f, ex.q))
        floor = 1e-3 * max(_top(kprof), _top(mprof))
        lams_k, sums_k = _levels(wmass, kprof, floor)
        lams_m, sums_m = _levels(wmass, mprof, floor)
        rows = [_row(f.label, None, np.max(lams_k ** kappa * sums_k),
                     np.max(lams_m ** kappa * sums_m), note=f"kappa={kappa:g}")
                for kappa in KAPPAS]
        return _Eval(rows, 0, {"amalgam_norms": {f.label: af}})

    return _Plan(details, evaluate)


def _lem32(scn: Scenario, ex, gs: int, tables: LqTables) -> _Plan:
    """Local level-set estimate with the split-threshold fitted.

    For each height a (LEM32_A_FRACS of the potential's top) the interval
    I is grown from the level set of the sampled potential until both
    endpoints fall at or below a; the fit B is the smallest split factor
    making the off-interval contribution at most a*b/2 for every tested
    height.  Points of LEM32_B_GRID below the fit are dropped; if nothing
    survives the scenario is skipped, reported but not failed.
    """
    m = _scenario_measure(scn)
    k = _scenario_kernel(scn)
    _kernel_eta_gate(m, k, ex.beta)
    grid = _scenario_grid(scn, m, gs)

    details = {"p": ex.p.value, "intervals": [], "notes": []}
    n = grid.xs.size

    def interval_for(kprof, a):
        mask = np.isfinite(kprof) & (kprof > a)
        if not mask.any():
            return 0, n - 1
        j_lo = int(np.argmax(mask)) - 1
        j_hi = n - int(np.argmax(mask[::-1]))
        if j_lo < 0 or j_hi > n - 1:
            return None
        return j_lo, j_hi

    def evaluate(f):
        kprof = _potential(m, f, k, grid.xs, gs)
        mprof = maximal_profile(m, f, ex.q, ex.beta, grid.xs, table=tables.get(m, f, ex.q))
        top = _top(kprof)
        rows, intervals, notes = [], [], []
        for frac in LEM32_A_FRACS:
            a = frac * top if top > 0 else 1.0
            found = interval_for(kprof, a)
            if found is None:
                notes.append(f"{f.label}: no interval inside the window at a={a:g}")
                continue
            j1, j2 = found
            x1, x2 = float(grid.xs[j1]), float(grid.xs[j2])
            mu_i = (j2 - j1) * grid.cell
            sl = slice(j1, j2 + 1)
            lo, hi = max(f.support.a, x1), min(f.support.b, x2)
            if lo < hi:
                f_in = replace(f, support=make_interval(m, lo, hi), levels=None,
                               label=f"{f.label}|I")
                k_in = _potential(m, f_in, k, grid.xs[sl], gs)
                tail = np.clip(kprof[sl] - k_in, 0.0, None)
            else:
                tail = kprof[sl]
            thr = 2.0 * _top(tail) / a
            intervals.append({"function": f.label, "a": a, "x1": x1, "x2": x2,
                              "mass": mu_i, "b_threshold": thr})
            bs = [b for b in LEM32_B_GRID if b >= thr * (1.0 - 1e-9)]
            if not bs:
                notes.append(f"{f.label}: all of b_grid sits below the fitted "
                             f"threshold {thr:g} at a={a:g}")
                continue
            for b in bs:
                for c in LEM32_C_GRID:
                    cond = (kprof[sl] > a * b) & (mprof[sl] <= a * c)
                    lhs = float(np.sum(cond)) * grid.cell
                    rhs = (c / b) ** ex.p.value * mu_i
                    rows.append(_row(f.label, a, lhs, rhs, note=f"b={b:g} c={c:g}"))
        return _Eval(rows, 0 if rows else None,
                     {"intervals": intervals, "notes": notes})

    def finish(rows):
        details["b_fit"] = max((iv["b_threshold"] for iv in details["intervals"]),
                               default=math.inf)
        if rows:
            return None
        details["diagnostic"] = "no admissible (interval, b) pair; scenario skipped"
        return "skip"

    return _Plan(details, evaluate, finish)


def _lem33(scn: Scenario, ex, gs: int, tables: LqTables) -> _Plan:
    """Far-field domination of the potential by the maximal function.

    Flanking intervals of exactly the support's mass are attached on
    both sides; probes march away geometrically in mass and each row
    compares Kf at the probe with the mass-ratio times the maximal
    function there.  The empirical constant is the fitted domination
    factor.
    """
    m = _scenario_measure(scn)
    k = _scenario_kernel(scn)
    _kernel_eta_gate(m, k, ex.beta)
    n_off = 5 * gs

    def evaluate(f):
        core = m.mass(f.support)
        _require(core > 0.0, f"{f.label} has zero-mass support")
        t1, t2 = m.cdf(f.support.a), m.cdf(f.support.b)
        offs = core * np.geomspace(0.5, 8.0, n_off)
        _tail_gate(scn, m, t1 - core - offs[-1], t2 + core + offs[-1])
        y1 = float(m.inv_cdf(t1 - core))
        y2 = float(m.inv_cdf(t2 + core))
        rows, table = [], tables.get(m, f, ex.q)
        for off in offs:
            for label, t_x in (("right", t2 + core + off), ("left", t1 - core - off)):
                x = float(m.inv_cdf(t_x))
                lhs, rhs = farfield_bound_check(m, f, ex.q, ex.beta, y1, f.support.a,
                                                f.support.b, y2, x, k, table=table)
                rows.append(_row(f.label, off, lhs, rhs, note=label))
        return _Eval(rows)

    return _Plan({"offsets": n_off * 2}, evaluate)


def _prop34_cor35_cor36(scn: Scenario, ex, gs: int, tables: LqTables) -> _Plan:
    """Weak bounds for the potential: weighted level sets, the two-step
    product chain, and the pure weak-to-weak form with auto-chosen q, p."""
    m = _scenario_measure(scn)
    details = {"growth_constant": _growth_gate(m)}
    k = _scenario_kernel(scn)
    _kernel_eta_gate(m, k, ex.beta)
    grid = _scenario_grid(scn, m, gs)
    inv_s = ex.alpha.recip - ex.beta.recip

    if scn.target == "prop34":
        inv_theta = ex.q1.recip - ex.beta.recip
        theta = 1.0 / inv_theta
        expo = (ex.q1.recip - ex.alpha1.recip) / inv_s
        wgt = _scenario_weight(scn)
        cond = _weight_gate(scn, m, wgt, ex.q, ex.q1, ex.beta, gs)
        wmass = weight_cell_masses(m, wgt.powered(theta), grid)
        details.update({"theta": theta, "s": 1.0 / inv_s,
                        "weight_condition": cond.constant,
                        "interpolation_exponent": expo})

        def evaluate(f):
            fv = _fv(f, wgt)
            kprof = _potential(m, f, k, grid.xs, gs)
            a1 = _amalgam(m, fv, ex.q1, ex.p1, ex.alpha1, gs, tables)
            a2 = _amalgam(m, f, ex.q, "inf", ex.alpha, gs, tables)
            return _weighted_rows(f, kprof, wmass, inv_theta,
                                  lambda lam: (a1 / lam) * (a2 / lam) ** expo)

    elif scn.target == "cor35":
        theta = 1.0 / (ex.q.recip - ex.beta.recip)
        details.update({"theta": theta, "s": 1.0 / inv_s})

        def evaluate(f):
            a1 = _amalgam(m, f, ex.q, ex.p, ex.alpha, gs, tables)
            a2 = _amalgam(m, f, ex.q, "inf", ex.alpha, gs, tables)
            mid = a1 ** (theta * inv_s) * a2 ** (1.0 - theta * inv_s)
            chain = [_row(f.label, None, a2, a1, note="weak_le_full"),
                     _row(f.label, None, mid, a1, note="chain")]
            kprof = _potential(m, f, k, grid.xs, gs)
            ev = _weak_rows(f, kprof, grid.cell, inv_s, [(mid, "")])
            return ev._replace(rows=chain + ev.rows, probe=len(chain) + ev.probe)

    else:
        # The middle of the admissible window for 1/q - 1/beta.
        mid_m = 0.5 * (inv_s + min(ex.alpha.recip, 1.0 - ex.beta.recip))
        q = Exponent.from_recip(mid_m + ex.beta.recip)
        p = Exponent.from_recip(0.5 * (mid_m + ex.alpha.recip))
        details.update({"q": q.value, "p": p.value, "s": 1.0 / inv_s})

        def evaluate(f):
            rhs = weak_norm(m, f, ex.alpha)
            kprof = _potential(m, f, k, grid.xs, gs)
            return _weak_rows(f, kprof, grid.cell, inv_s, [(rhs, "")])

    return _Plan(details, evaluate)


def _prop41_steinweiss(scn: Scenario, ex, gs: int, tables: LqTables) -> _Plan:
    """Fractional integral on the power measure, Lebesgue data.

    The twist F = |x|^a f converts the convolution against |x|^(gamma-1)
    into the measure-side potential; norms on the right live under the
    power measure while the profile itself is integrated under Lebesgue.
    The closing weighted inequality stays entirely on the Lebesgue side.
    """
    m_a = _scenario_measure(scn)
    _require(m_a.kind == "power" and m_a.a == ex.a,
             "measure block must be power with a = exponents.a")
    ratio_ga = (ex.gamma - ex.a) / (1.0 - ex.a)
    inv_eta = 1.0 - ratio_ga
    if "eta" in scn.exponents:
        _require(abs(ex.eta.recip - inv_eta) <= 1e-9,
                 f"declared eta {ex.eta.value:g} clashes with the derived "
                 f"value {1.0 / inv_eta:g}")
    inv_s = ex.alpha.recip - ratio_ga
    s = 1.0 / inv_s
    if scn.kernel is not None:
        kb = _scenario_kernel(scn)
        _require(kb.singular_exponent is not None
                 and abs((1.0 + kb.singular_exponent) - ex.gamma) <= 1e-12,
                 "kernel block must match exponents.gamma")
    k = riesz_kernel(ex.gamma)

    leb = lebesgue()
    details = {"s": s, "eta": 1.0 / inv_eta}

    if scn.target == "steinweiss":
        grid = sample_grid(leb, float(m_a.inv_cdf(scn.window_mass)), scn.samples * gs)
        wfac = np.abs(grid.xs) ** (-ex.a * inv_s)

        def closing(f):
            prof = _potential(leb, f, k, grid.xs, gs)
            rhs = _lq_or_inf(leb, power_twist(f, ex.a * (1.0 - ex.alpha.recip)), ex.alpha)
            with np.errstate(over="ignore"):
                lhs = float(np.nansum((wfac * prof) ** s) * grid.cell) ** inv_s
            return _Eval([_row(f.label, None, lhs, rhs)])

        return _Plan(details, closing)

    theta = 1.0 / (ex.q.recip - ratio_ga)
    details["theta"] = theta
    part2 = ex.alpha.recip < 1.0
    grid = _scenario_grid(scn, m_a, gs)

    def evaluate(f):
        bigf = power_twist(f, ex.a)
        prof = _potential(leb, f, k, grid.xs, gs)
        a1 = _amalgam(m_a, bigf, ex.q, ex.p, ex.alpha, gs, tables)
        a2 = _amalgam(m_a, bigf, ex.q, "inf", ex.alpha, gs, tables)
        rhs_notes = [(a1 ** (theta * inv_s) * a2 ** (1.0 - theta * inv_s), "")]
        if part2:
            rhs_notes.append((weak_norm(m_a, bigf, ex.alpha), "part2"))
        return _weak_rows(f, prof, grid.cell, inv_s, rhs_notes)

    return _Plan(details, evaluate)


def _norm_properties(scn: Scenario, ex, gs: int, tables: LqTables) -> _Plan:
    """Norm cross-checks on one family: the q = p = alpha collapse, the
    weak-vs-strong comparison, the p-monotonicity of block norms, and
    the weak-to-amalgam embedding constant."""
    m = _scenario_measure(scn)
    identity_mode = (ex.q.value == ex.p.value == ex.alpha.value)

    def evaluate(f):
        full = _amalgam(m, f, ex.q, ex.p, ex.alpha, gs, tables)
        weak = weak_norm(m, f, ex.alpha)
        strong = _lq_or_inf(m, f, ex.alpha)
        rows = []
        if identity_mode and math.isfinite(strong):
            rows.append(_row(f.label, None, full, strong, note="identity"))
        if math.isfinite(strong):
            rows.append(_row(f.label, None, weak, strong, note="weak_le_strong"))
        if not identity_mode:
            tail_free = _amalgam(m, f, ex.q, "inf", ex.alpha, gs, tables)
            rows.append(_row(f.label, None, tail_free, full, note="p_monotone"))
        rows.append(_row(f.label, None, full, weak, note="embedding"))
        return _Eval(rows, len(rows) - 1)

    return _Plan({"identity_mode": identity_mode}, evaluate)


def _covering_trials(scn: Scenario, gs: int) -> VerificationReport:
    """Randomized families through the selection sweep; the constant is
    the worst observed overlap, bounded by five.  It has no function
    family, so it runs outside the driver."""
    m = _scenario_measure(scn)
    trials = scn.options.get("trials", 200) * gs
    # The family's window reaches 2 in mass past the centres, beyond
    # every interval's half mass.
    _tail_gate(scn, m, COVER_CENTRES[0] - 2.0, COVER_CENTRES[1] + 2.0)
    done = select_cover(random_family(m, count=COVER_COUNT,
                                      seed=range(scn.seed, scn.seed + trials),
                                      mass_range=COVER_MASSES,
                                      center_range=COVER_CENTRES))
    worst = done.worst
    failure = None if done.failure is None else "trial {}: {}".format(*done.failure)
    rows = [_row("random_families", None, float(worst), 5.0, note=f"trials={trials}")]
    details = {"trials": trials, "count": COVER_COUNT, "worst_overlap": worst,
               "coverage_failure": failure}
    rows_ok = failure is None and worst <= 5
    return _finish(scn, gs, rows, float(worst), details, True, rows_ok)


_GATES = {"thm21_part1": _thm21, "thm21_part2": _thm21,
          "cor23": _cor23_24, "cor24": _cor23_24,
          "thm31_goodlambda": _thm31_goodlambda, "lem32": _lem32, "lem33": _lem33,
          "prop34": _prop34_cor35_cor36, "cor35": _prop34_cor35_cor36,
          "cor36": _prop34_cor35_cor36, "prop41": _prop41_steinweiss,
          "steinweiss": _prop41_steinweiss, "norm_properties": _norm_properties}

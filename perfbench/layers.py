"""Layer spans recorded from outside the program.

Each layer is a public function of an ``amalgam`` module.  ``install``
wraps it in a span and rebinds every module global that refers to the
original object, because the package binds names with ``from .x import
name`` and a caller looks the name up in its own module.  ``LqTable`` is
a class, so its ``__init__`` is wrapped in place instead, which covers
every binding of the class at once.

A wrapper calls the original with the same arguments and returns its
value unchanged; it only reads the clock and derives counts from the
arguments or the result.  Self time is a span's duration minus the
durations of the spans it encloses, so the self times of all layers add
up to the time spent inside top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

import numpy as np


def _arg(args, kwargs, i, name, default=None):
    """Argument ``name`` at position ``i`` of a call, or its default."""
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _panels(args, kwargs, result):
    return {"panels": int(np.size(_arg(args, kwargs, 1, "lo")))}


def _candidates(args, kwargs, result):
    # maximal_profile(m, f, q, beta, xs, mass_grid=None, split_count=17);
    # mass_grid=None means default_mass_grid, which has 64 masses.
    masses = _arg(args, kwargs, 5, "mass_grid")
    n_masses = 64 if masses is None else int(np.size(masses))
    return {"candidates": int(np.size(_arg(args, kwargs, 4, "xs")))
            * n_masses * int(_arg(args, kwargs, 6, "split_count", 17))}


def _points(args, kwargs, result):
    return {"points": int(np.size(_arg(args, kwargs, 3, "xs")))}


def _interval_count(args, kwargs, result):
    return {"intervals": int(result.interval_count)}


def _family_size(args, kwargs, result):
    return {"intervals": len(result)}


def _report_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# (module, attribute, extra counts).  Every layer reports self_s and
# calls; the count function adds layer-specific work counts.
LAYERS = [
    ("measure", "gk_panels", _panels),
    ("measure", "growth_constant", None),
    ("norms", "LqTable", None),
    ("norms", "amalgam_norm", None),
    ("norms", "lq_norm", None),
    ("norms", "weak_norm", None),
    ("operators", "maximal_profile", _candidates),
    ("operators", "potential_profile", _points),
    ("operators", "maximal", None),
    ("operators", "potential", None),
    ("operators", "farfield_bound_check", None),
    ("weights", "a_r_constant", None),
    ("weights", "thm21_condition", _interval_count),
    ("weights", "a_infty_epsilon_delta", None),
    ("covering", "random_family", _family_size),
    ("covering", "select_cover", None),
    ("harness", "load_scenario", None),
    ("harness", "verify_scenario", None),
    ("harness", "write_report", _report_bytes),
    ("cli", "main", None),
]


class Tracer:
    """In-memory span accounting: per layer self time, total (inclusive)
    time, calls and counts.  A recursive layer's total_s counts its
    nested calls twice; no layer here recurses."""

    def __init__(self):
        self.stats = {f"{mod}.{name}": {"self_s": 0.0, "total_s": 0.0,
                                         "calls": 0}
                      for mod, name, _ in LAYERS}
        self._child = []      # per open span: time covered by its children
        self.top_s = 0.0      # total duration of top-level spans

    def wrap(self, layer: str, fn, count=None):
        stats = self.stats[layer]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    for key, val in count(args, kwargs, result).items():
                        stats[key] = stats.get(key, 0) + val
                return result
            finally:
                dur = perf_counter() - t0
                stats["self_s"] += dur - self._child.pop()
                stats["total_s"] += dur
                stats["calls"] += 1
                if self._child:
                    self._child[-1] += dur
                else:
                    self.top_s += dur
        return span

    def self_total(self) -> float:
        return sum(s["self_s"] for s in self.stats.values())


def install(tracer: Tracer) -> None:
    """Wrap every layer and rebind each module global that names it."""
    owners = {mod: importlib.import_module(f"amalgam.{mod}")
              for mod, _, _ in LAYERS}
    mods = [mod for name, mod in sorted(sys.modules.items())
            if name == "amalgam" or name.startswith("amalgam.")]
    for mod_name, attr, count in LAYERS:
        layer = f"{mod_name}.{attr}"
        owner = owners[mod_name]
        orig = getattr(owner, attr)
        if inspect.isclass(orig):
            orig.__init__ = tracer.wrap(layer, orig.__init__, count)
            continue
        wrapped = tracer.wrap(layer, orig, count)
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)

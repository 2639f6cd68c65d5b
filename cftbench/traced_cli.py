"""Traced exactcft CLI: runs one command with spans around the layer functions.

    python3 cftbench/trace.py STATS.json <exactcft CLI arguments>

Behaves like `python -m exactcft.cli <arguments>` (same stdout, stderr and
exit code) and writes per-function statistics to STATS.json when the command
ends: calls, self time (span minus the spans of wrapped callees) and, for
entry points, the time of outermost calls. The wrappers are installed from
here, at every module that imported a function by name and on the classes
that own a method; nothing inside src/ changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# name -> (module, attribute, class or None)
TARGETS = {
    "channels.channel_coefficients": ("channels", "channel_coefficients", None),
    "channels.reduce_sixpoint": ("channels", "reduce_sixpoint", None),
    "amplitudes.fourpoint_amplitudes": ("amplitudes", "fourpoint_amplitudes", None),
    "linsolve.symmetric_inertia": ("linsolve", "symmetric_inertia", None),
    "linsolve.linear_solve_exact": ("linsolve", "linear_solve_exact", None),
    "series.TruncatedSeries.mul": ("series", "__mul__", "TruncatedSeries"),
    "series.TruncatedSeries.map_coefficients": ("series", "map_coefficients", "TruncatedSeries"),
    "gseries.completion_series": ("gseries", "completion_series", None),
    "gseries.verify_biharmonic": ("gseries", "verify_biharmonic", None),
    "poly.MultiPoly.mul": ("poly", "__mul__", "MultiPoly"),
    "poly.MultiPoly.add": ("poly", "__add__", "MultiPoly"),
    "tensor_ops.harmonic_project": ("tensor_ops", "harmonic_project", None),
    "tensor_ops.coefficient_table": ("tensor_ops", "coefficient_table", None),
    "tensor_ops.radial_poly": ("tensor_ops", "radial_poly", None),
    "tensor_ops.verify_tensor_pde": ("tensor_ops", "verify_tensor_pde", None),
    "tensor_ops.solve_intertwiner_space": ("tensor_ops", "solve_intertwiner_space", None),
    "tensor_ops.assemble_tensor_intertwiner": ("tensor_ops", "assemble_tensor_intertwiner", None),
    "waves.wave_coefficient": ("waves", "wave_coefficient", None),
    "special.pochhammer": ("special", "pochhammer", None),
    "waves.chiral_wave_series": ("waves", "chiral_wave_series", None),
    "waves.casimir_residual": ("waves", "casimir_residual", None),
    "pairs.PairSum.is_zero_function": ("pairs", "is_zero_function", "PairSum"),
    "pairs.PairSum.proportional_to": ("pairs", "proportional_to", "PairSum"),
    "pairs.TwoChiralSum.is_zero_function": ("pairs", "is_zero_function", "TwoChiralSum"),
    "chiral_ops.chiral_intertwiner": ("chiral_ops", "chiral_intertwiner", None),
    "chiral_ops.verify_chiral_pde": ("chiral_ops", "verify_chiral_pde", None),
    "chiral_ops.reduce_correlator": ("chiral_ops", "reduce_correlator", None),
    "chiral_ops.reduce_wave": ("chiral_ops", "reduce_wave", None),
    "chiral_ops.match_reduction": ("chiral_ops", "match_reduction", None),
    "sixpoint.restrict_2d": ("sixpoint", "restrict_2d", None),
    "positivity.positivity_report": ("positivity", "positivity_report", None),
    "cli.canonical_json": ("cli", "canonical_json", None),
}

# functions whose inclusive time is reported as <name>.time_s
ENTRY_POINTS = (
    "positivity.positivity_report",
    "gseries.completion_series",
    "gseries.verify_biharmonic",
    "sixpoint.restrict_2d",
    "waves.chiral_wave_series",
    "waves.casimir_residual",
    "chiral_ops.reduce_wave",
    "chiral_ops.match_reduction",
    "tensor_ops.solve_intertwiner_space",
    "tensor_ops.assemble_tensor_intertwiner",
)


class Stat:
    __slots__ = ("calls", "self_s", "time_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.time_s = 0.0
        self.depth = 0  # open calls of this function, for outermost timing
        self.extra: dict = {}


def _distinct_args(stat, args, kwargs, result):
    stat.extra.setdefault("args", set()).add((args, tuple(sorted(kwargs.items()))))


def _max_dim(stat, args, kwargs, result):
    stat.extra["max_dim"] = max(stat.extra.get("max_dim", 0), len(args[0]))


def _max_cells(stat, args, kwargs, result):
    rows = args[0]
    cells = len(rows) * (len(rows[0]) if rows else 0)
    stat.extra["max_cells"] = max(stat.extra.get("max_cells", 0), cells)


def _terms(stat, args, kwargs, result):
    stat.extra["terms"] = stat.extra.get("terms", 0) + len(result.series.terms)


# name -> (hook run after each call, size metric it adds and its unit)
EXTRAS = {
    "channels.channel_coefficients": (_distinct_args, None, None),
    "linsolve.symmetric_inertia": (_max_dim, "max_dim", "rows"),
    "linsolve.linear_solve_exact": (_max_cells, "max_cells", "cells"),
    "waves.chiral_wave_series": (_terms, "terms", "count"),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack: list[list[float]] = []  # child time of each open span

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self.stack
        extra = EXTRAS.get(name, (None,))[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            stat.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += dt - children[0]
                if stack:
                    stack[-1][0] += dt
                if stat.depth == 0:
                    stat.time_s += dt
            if extra:
                extra(stat, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "exactcft" or n.startswith("exactcft.")]
        for name, (mod_name, attr, cls_name) in TARGETS.items():
            mod = importlib.import_module(f"exactcft.{mod_name}")
            if cls_name:
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                wrapped = self.wrap(name, original)
                for key, val in list(vars(cls).items()):  # aliases such as __rmul__
                    if val is original:
                        setattr(cls, key, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapped)

    def dump(self, path: str):
        out = {}
        for name, s in self.stats.items():
            row = {"calls": s.calls, "self_s": s.self_s, "time_s": s.time_s}
            for key, val in s.extra.items():
                row[key] = len(val) if key == "args" else val
            out[name] = row
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import exactcft  # noqa: F401  (loads every module before patching)
    from exactcft import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(stats_path)


if __name__ == "__main__":
    sys.exit(main())

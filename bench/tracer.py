"""Per-layer tracing of darkres from outside the program.

Every public function of the layer modules is wrapped, and every name
that binds it is rebound to the wrapper: the package namespace and the
modules that import layer functions by name (``observables``, ``sweep``
and ``cli`` each do).  Each wrapper records calls, calls that returned,
inclusive time and self time (its duration minus the time of wrapped
calls made inside it), plus the number of steady-state solves made
inside its outermost calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

LAYERS = ("model", "steady_state", "analytic", "observables", "sweep", "cli")
# Methods that are layer stages in their own right.
METHODS = (("model", "MediumParams", "check"), ("steady_state", "DensityMatrix", "validate"))
SOLVE = "steady_state.steady_state"


@dataclass
class Stat:
    calls: int = 0
    returned: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    solves: int = 0
    amounts: dict[str, float] = field(default_factory=dict)


def _csv_bytes(args, kwargs, result) -> dict[str, float]:
    dest = args[1] if len(args) > 1 else kwargs["destination"]
    return {"bytes": os.path.getsize(dest)} if isinstance(dest, (str, os.PathLike)) else {}


def _sweep_points(args, kwargs, result) -> dict[str, float]:
    return {"points": len(result.rows) + len(result.failures), "failed": len(result.failures)}


OBSERVERS: dict[str, Callable[[tuple, dict, Any], dict[str, float]]] = {
    "sweep.write_csv": _csv_bytes,
    "sweep.run_sweep": _sweep_points,
}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.solves = 0
        self._children: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, key: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(key, Stat())
        children = self._children
        observe = OBSERVERS.get(key)
        counts_solve = key == SOLVE
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_solve:
                self.solves += 1
            solves0 = self.solves
            children.append(0.0)
            returned = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                dt = clock() - t0
                inner = children.pop()
                if children:
                    children[-1] += dt
                stat.calls += 1
                stat.returned += returned
                stat.total_s += dt
                stat.self_s += dt - inner
                stat.solves += self.solves - solves0
                if returned and observe is not None:
                    for name, value in observe(args, kwargs, result).items():
                        stat.amounts[name] = stat.amounts.get(name, 0.0) + value

        return traced

    def install(self) -> None:
        """Wrap every public layer function at every binding site, then
        verify that no darkres module still binds an unwrapped one."""
        modules = {layer: importlib.import_module(f"darkres.{layer}") for layer in LAYERS}
        wrappers: dict[Callable, Callable] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        sites = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "darkres"]
        for mod in sites:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(mod, name, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            key = f"{layer}.{cls_name}.{meth}"
            self._rebind(cls, meth, self.wrap(key, getattr(cls, meth)))
        missed = [
            f"{mod.__name__}.{name}"
            for mod in sites
            for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]
        if missed:
            raise RuntimeError(f"unwrapped layer bindings: {missed}")

    def _rebind(self, owner: object, name: str, value: object) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def require_calls(self, keys) -> None:
        """Fail loudly when a layer the workload must reach saw no call."""
        silent = [key for key in keys if self.stats.get(key, Stat()).calls == 0]
        if silent:
            raise RuntimeError(f"traced layers recorded no calls: {silent}")


def wrapper_overhead(repeats: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(repeats):
        noop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(repeats):
        traced()
    return max(clock() - t0 - bare, 0.0) / repeats


def layer_metrics(tracer: Tracer, passes: int, overhead_per_call: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per workload pass, as {name: (value, unit)}."""
    s = tracer.stats

    def stat(key: str) -> Stat:
        return s.get(key, Stat())

    def layer_self(layer: str) -> float:
        return sum(st.self_s for key, st in s.items() if key.split(".")[0] == layer)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    zero = stat("observables.find_absorption_zero")
    calls = sum(st.calls for st in s.values())
    per_pass = {
        "steady_state.calls": (stat(SOLVE).calls, "calls/pass"),
        "steady_state.assemble_s": (stat("steady_state.assemble").total_s, "s/pass"),
        "steady_state.solve_linear_s": (stat("steady_state.solve_linear").total_s, "s/pass"),
        "steady_state.validate_s": (stat("steady_state.DensityMatrix.validate").total_s, "s/pass"),
        "steady_state.self_s": (stat(SOLVE).self_s, "s/pass"),
        "model.self_s": (layer_self("model"), "s/pass"),
        "analytic.self_s": (layer_self("analytic"), "s/pass"),
        "observables.chi_at.calls": (stat("observables.chi_at").calls, "calls/pass"),
        "observables.chi_at.self_s": (stat("observables.chi_at").self_s, "s/pass"),
        "observables.dispersion_slope.calls": (stat("observables.dispersion_slope").calls, "calls/pass"),
        "observables.group_index.calls": (stat("observables.group_index").calls, "calls/pass"),
        "observables.find_absorption_zero.calls": (zero.calls, "calls/pass"),
        "sweep.run_sweep.self_s": (stat("sweep.run_sweep").self_s, "s/pass"),
        "sweep.points": (stat("sweep.run_sweep").amounts.get("points", 0.0), "points/pass"),
        "sweep.failed_points": (stat("sweep.run_sweep").amounts.get("failed", 0.0), "points/pass"),
        "sweep.parse_config_s": (stat("sweep.parse_config").total_s, "s/pass"),
        "sweep.write_csv_s": (stat("sweep.write_csv").total_s, "s/pass"),
        "sweep.write_csv_bytes": (stat("sweep.write_csv").amounts.get("bytes", 0.0), "B/pass"),
        "cli.main.self_s": (stat("cli.main").self_s, "s/pass"),
        "trace.overhead_s": (calls * overhead_per_call, "s/pass"),
    }
    metrics = {name: (value / passes, unit) for name, (value, unit) in per_pass.items()}
    for key in ("dispersion_slope", "find_absorption_zero", "find_gain_threshold"):
        st = stat(f"observables.{key}")
        metrics[f"observables.{key}.solves_per_call"] = (ratio(st.solves, st.calls), "solves/call")
    metrics["observables.find_absorption_zero_auto.bracket_hit_ratio"] = (
        ratio(zero.returned, zero.calls),
        "roots/bracket",
    )
    return metrics

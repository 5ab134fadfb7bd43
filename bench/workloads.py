"""The benchmark's workloads.

A workload is built from a seed and runs in passes; every pass attempts
the same operations, so ``failed`` is the same share of ``attempted`` in
every run.  ``run_pass`` times each operation alone and checks the
outputs after the clock stops.  Layer functions are looked up on their
modules at call time, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import oracle

darkres = importlib.import_module("darkres")
cli = importlib.import_module("darkres.cli")
observables = importlib.import_module("darkres.observables")
sweep = importlib.import_module("darkres.sweep")

SPECTRUM_CONFIG = """\
# Pumped configuration: gain spike on the ultranarrow feature.
g41 = 0.04
g42 = 4
gp = 1e-4
gamma13 = 0
lambda = 4e-5
start = -1e-3
stop = 1e-3
points = 2001
"""

# The pump scan sweeps LAMBDA from just above each drive's gain threshold;
# g42 and start are set per drive.
PUMP_SCAN_CONFIG = """\
g41 = 0.04
g42 = 4
gp = 1e-4
gamma13 = 0
gamma_SI = 1e7
axis = LAMBDA
spacing = LOG
start = 1e-5
stop = 1e-3
points = 5
outputs = DELTA0,SLOPE,NG
"""
PUMP_DRIVES = (4.0, 7.0, 10.0)
THRESHOLD_RANGE = (1e-8, 1e-2)
# Sweep start above lambda*, as a relative offset drawn from the seed; the
# lower end clears the threshold finder's 1e-3 relative tolerance.
START_OFFSET = (0.005, 0.02)

RANDOM_CONFIG = SPECTRUM_CONFIG
RANDOM_DRAWS = 1000
SPECTRUM_SAMPLES = 64


@dataclass
class PassResult:
    op_seconds: list[float]  # valid operations, for the latency percentiles
    pass_seconds: float  # every operation of the pass
    attempted: int
    failed: int
    problems: list[str]


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


class Spectrum:
    """``darkres spectrum`` through ``cli.main`` on the pumped config:
    2001 independent per-point solves, a config parse and a CSV write."""

    name = "spectrum"
    config = SPECTRUM_CONFIG
    reaches = (
        "cli.main", "sweep.parse_config", "sweep.run_sweep", "sweep.write_csv",
        "observables.chi_at", "steady_state.steady_state", "steady_state.assemble",
        "steady_state.solve_linear", "steady_state.DensityMatrix.validate",
        "model.check_params",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.cfg = workdir / "spectrum.cfg"
        self.cfg.write_text(self.config, encoding="utf-8")
        self.out = workdir / "spectrum.csv"
        spec = sweep.parse_config(self.config)
        grid = spec.grid()
        self.points = len(grid)
        rng = np.random.default_rng(seed)
        self.sample = sorted(rng.choice(len(grid), SPECTRUM_SAMPLES, replace=False).tolist())
        self.reference = [
            oracle.chi(replace(spec.params, delta_p=grid[k]), spec.medium) for k in self.sample
        ]

    def run_pass(self) -> PassResult:
        argv = ["spectrum", "--config", str(self.cfg), "--out", str(self.out)]
        code, dt = _timed(cli.main, argv)
        if code != 0:
            return PassResult([dt], dt, 1, 1, [])
        problems = checks.check_spectrum(
            self.out.read_text(encoding="utf-8"), self.points, self.sample, self.reference
        )
        return PassResult([dt], dt, 1, 0, problems)


class PumpScan:
    """The pump-scan figure: for each drive, the gain threshold over
    (1e-8, 1e-2), then a LOG LAMBDA sweep from just above it to 1e-3 with
    DELTA0, SLOPE and NG.  One operation is the whole figure: the drives
    differ in cost, so per-drive latencies would mix two populations."""

    name = "pump_scan"
    config = PUMP_SCAN_CONFIG
    reaches = (
        "observables.find_gain_threshold", "observables.find_absorption_zero_auto",
        "observables.find_absorption_zero", "observables.dispersion_slope",
        "observables.group_index", "observables.chi_at", "sweep.run_sweep",
        "sweep.parse_config", "analytic.spike_half_width", "steady_state.steady_state",
        "steady_state.solve_linear", "model.check_params",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.offsets = [float(rng.uniform(*START_OFFSET)) for _ in PUMP_DRIVES]

    def _curve(self, g42: float, offset: float):
        base = sweep.parse_config(self.config, {"g42": repr(g42)})
        star = observables.find_gain_threshold(base.params, base.medium, THRESHOLD_RANGE)
        spec = sweep.parse_config(
            self.config, {"g42": repr(g42), "start": repr(star * (1 + offset))}
        )
        return spec, star, sweep.run_sweep(spec)

    def _figure(self):
        return [self._curve(g42, offset) for g42, offset in zip(PUMP_DRIVES, self.offsets)]

    def run_pass(self) -> PassResult:
        curves, dt = _timed(self._figure)
        problems = []
        for spec, star, table in curves:
            problems += checks.check_threshold(spec.params, spec.medium, star)
            problems += checks.check_pump_sweep(spec.params, spec.medium, table.columns, table.rows)
        failed = int(any(table.failures for _, _, table in curves))
        return PassResult([dt], dt, 1, failed, problems)


def _draw(rng: np.random.Generator, pumped: bool):
    """A well-posed parameter set.  General draws keep gamma13 > 0 so the
    shelving state always decays back; pumped draws sit in the paper's
    regime (resonant fields, gamma13 = 0, a weak pump near the feature)."""
    if pumped:
        return darkres.SystemParams(
            g41=rng.uniform(0.01, 0.1), g42=rng.uniform(2.0, 10.0), g_p=1e-4,
            delta_p=rng.uniform(-1e-3, 1e-3),
            gamma41=1.0, gamma42=0.79, gamma23=0.14, gamma13=0.0,
            lambda_pump=10 ** rng.uniform(-6, -3),
        )
    return darkres.SystemParams(
        g41=rng.uniform(0, 2), g42=rng.uniform(0.1, 5), g_p=rng.uniform(1e-5, 0.1),
        delta41=rng.uniform(-5, 5), delta42=rng.uniform(-5, 5), delta_p=rng.uniform(-5, 5),
        gamma41=rng.uniform(0.1, 2), gamma42=rng.uniform(0.1, 2), gamma23=rng.uniform(0.01, 1),
        gamma13=rng.uniform(1e-3, 0.1), lambda_pump=rng.uniform(0, 0.05),
    )


class RandomStates:
    """Independent seeded draws, one library ``chi_at`` call each, plus two
    invalid inputs whose correct outcome is ``ParameterError``."""

    name = "random_states"
    config = RANDOM_CONFIG
    reaches = (
        "observables.chi_at", "steady_state.steady_state", "steady_state.solve_linear",
        "steady_state.DensityMatrix.validate", "model.check_params",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.medium = darkres.MediumParams()
        self.draws = [_draw(rng, pumped=k % 2 == 1) for k in range(RANDOM_DRAWS)]
        self.reference = [oracle.chi(p, self.medium) for p in self.draws]
        base = sweep.parse_config(self.config).params
        self.invalid = [replace(base, gamma41=math.nan), replace(base, g42=math.inf)]

    def run_pass(self) -> PassResult:
        times, failed, problems = [], 0, []
        for p, want in zip(self.draws, self.reference):
            try:
                chi, dt = _timed(observables.chi_at, p, self.medium)
            except darkres.SimulationError:
                failed += 1
                continue
            times.append(dt)
            problems += checks.check_chi(chi, want)
        total = sum(times)
        for p in self.invalid:
            t0 = time.perf_counter()
            try:
                with np.errstate(invalid="ignore", divide="ignore"):
                    observables.chi_at(p, self.medium)
                rejected = False
            except darkres.ParameterError:
                rejected = True
            except darkres.SimulationError:
                rejected = False
            total += time.perf_counter() - t0
            failed += not rejected
        return PassResult(times, total, len(self.draws) + len(self.invalid), failed, problems)


WORKLOADS = {w.name: w for w in (Spectrum, PumpScan, RandomStates)}

"""Declarative one-axis parameter scans with CSV persistence.

A sweep varies exactly one of: probe detuning, incoherent pump rate, or
drive Rabi frequency.  Every figure-style dataset is a single sweep (or a
few sweeps composed externally).  Grid points are evaluated independently
and in grid order, failed points are logged with their error code instead
of aborting, so that identical specs produce byte-identical data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import IO, Iterable

from ._version import __version__
from .errors import ConfigError, NumericError
from .model import MediumParams, SystemParams
from .observables import (
    Method,
    chi_at,
    dispersion_slope,
    find_absorption_zero_auto,
    group_index,
)
from .steady_state import steady_state


class Axis(str, Enum):
    DELTA_P = "DELTA_P"
    LAMBDA = "LAMBDA"
    G42 = "G42"


class Spacing(str, Enum):
    LINEAR = "LINEAR"
    LOG = "LOG"


class Output(str, Enum):
    CHI_RE = "CHI_RE"
    CHI_IM = "CHI_IM"
    SLOPE = "SLOPE"
    NG = "NG"
    DELTA0 = "DELTA0"
    POPULATIONS = "POPULATIONS"


# Upper bound on grid points, checked before any grid is built: a million
# points already take minutes of solves and hundreds of MB of rows.
MAX_POINTS = 1_000_000

_AXIS_COLUMN = {Axis.DELTA_P: "delta_p", Axis.LAMBDA: "lambda", Axis.G42: "g42"}

_OUTPUT_COLUMNS = {
    Output.CHI_RE: ("chi_re",),
    Output.CHI_IM: ("chi_im",),
    Output.SLOPE: ("slope", "slope_err"),
    Output.NG: ("ng",),
    Output.DELTA0: ("delta0",),
    Output.POPULATIONS: ("rho11", "rho22", "rho33", "rho44"),
}


@dataclass(frozen=True)
class SweepSpec:
    """One-axis scan description.

    ``outputs`` semantics per grid point: CHI_* are evaluated at the base
    probe detuning (or at the grid value on a DELTA_P sweep); DELTA0
    re-runs the absorption-zero finder with an automatic bracket; SLOPE
    and NG are evaluated at the found DELTA0 when that output is also
    requested, otherwise at the base detuning.  With the NUMERIC method
    SLOPE is the exact detuning derivative (``slope_err`` is 0) and NG
    takes chi' and that derivative from one solve; the closed-form
    methods use step-halving finite differences.  POPULATIONS are the
    numeric steady-state level occupations.
    """

    params: SystemParams
    medium: MediumParams
    axis: Axis
    start: float
    stop: float
    points: int
    spacing: Spacing = Spacing.LINEAR
    method: Method = Method.NUMERIC
    outputs: tuple[Output, ...] = (Output.CHI_RE, Output.CHI_IM)

    def validate(self) -> None:
        if self.points < 2:
            raise ConfigError("points must be >= 2", code="RANGE_ERROR")
        if self.points > MAX_POINTS:
            raise ConfigError(f"points must be <= {MAX_POINTS}", code="RANGE_ERROR")
        if not self.start < self.stop:
            raise ConfigError("start must be < stop", code="RANGE_ERROR")
        if self.spacing is Spacing.LOG and not self.start > 0:
            raise ConfigError("LOG spacing requires start > 0", code="RANGE_ERROR")
        if self.axis in (Axis.LAMBDA, Axis.G42) and self.start < 0:
            raise ConfigError(f"{self.axis.value} axis must be >= 0", code="RANGE_ERROR")
        if not self.outputs:
            raise ConfigError("outputs must not be empty", code="RANGE_ERROR")
        if Output.NG in self.outputs and not self.medium.gamma_si > 0:
            raise ConfigError(
                "NG output requires gamma_SI > 0", code="RANGE_ERROR"
            )

    def grid(self) -> list[float]:
        """Axis values start + k*(stop-start)/(points-1), or the base-10
        logarithmic analog, reproduced to machine precision."""
        n = self.points - 1
        if self.spacing is Spacing.LINEAR:
            return [self.start + k * (self.stop - self.start) / n for k in range(self.points)]
        la, lb = math.log10(self.start), math.log10(self.stop)
        return [10.0 ** (la + k * (lb - la) / n) for k in range(self.points)]


@dataclass
class SweepTable:
    """Ordered sweep results plus provenance metadata and failure log."""

    columns: list[str]
    rows: list[tuple[float, ...]]
    metadata: dict[str, str]
    failures: list[tuple[float, str]]


def _point_params(spec: SweepSpec, x: float) -> SystemParams:
    if spec.axis is Axis.DELTA_P:
        return replace(spec.params, delta_p=x)
    if spec.axis is Axis.LAMBDA:
        return replace(spec.params, lambda_pump=x)
    return replace(spec.params, g42=x)


def _evaluate_point(
    spec: SweepSpec, x: float
) -> tuple[float, tuple[float, ...] | None, str | None]:
    """Compute all requested outputs at one axis value.

    Returns (x, row, None) on success or (x, None, error_code) when any
    requested output fails numerically.
    """
    p = _point_params(spec, x)
    try:
        values: list[float] = [x]
        delta0: float | None = None
        if Output.DELTA0 in spec.outputs:
            delta0 = find_absorption_zero_auto(p, spec.medium)
        eval_dp = delta0 if delta0 is not None else p.delta_p
        chi = None
        if Output.CHI_RE in spec.outputs or Output.CHI_IM in spec.outputs:
            chi = chi_at(p, spec.medium, method=spec.method)
        for out in spec.outputs:
            if out is Output.CHI_RE:
                values.append(chi.real)
            elif out is Output.CHI_IM:
                values.append(chi.imag)
            elif out is Output.SLOPE:
                slope, err = dispersion_slope(
                    p, spec.medium, eval_dp, method=spec.method
                )
                values.extend((slope, err))
            elif out is Output.NG:
                values.append(
                    group_index(p, spec.medium, eval_dp, method=spec.method)
                )
            elif out is Output.DELTA0:
                values.append(delta0)
            elif out is Output.POPULATIONS:
                dm = steady_state(p)
                values.extend(dm.population(i) for i in (1, 2, 3, 4))
        return x, tuple(values), None
    except NumericError as exc:
        return x, None, exc.code


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepTable:
    """Evaluate the sweep point by point in grid order.

    Per-point numeric failures (for example NO_SIGN_CHANGE from the
    absorption-zero finder below the gain onset) are recorded in the
    failure log and excluded from the rows; spec-level validation errors
    are fatal.  ``jobs`` is accepted and ignored: the solves hold the
    interpreter lock, so worker threads only made sweeps slower.
    """
    spec.validate()
    results = [_evaluate_point(spec, x) for x in spec.grid()]

    columns = [_AXIS_COLUMN[spec.axis]]
    for out in spec.outputs:
        columns.extend(_OUTPUT_COLUMNS[out])

    rows = [row for _, row, code in results if code is None]
    failures = [(x, code) for x, _, code in results if code is not None]
    return SweepTable(
        columns=columns, rows=rows, metadata=spec_metadata(spec), failures=failures
    )


# ---------------------------------------------------------------------------
# Configuration format: UTF-8 text, one `key = value` per line, '#' comments.
# ---------------------------------------------------------------------------

_FLOAT_KEYS = {
    "g41", "g42", "gp", "d41", "d42", "dp",
    "gamma41", "gamma42", "gamma23", "gamma13", "lambda",
    "N_per_cm3", "wavelength_nm", "gamma23_over_gamma", "gamma_SI",
    "start", "stop",
}

CONFIG_KEYS = _FLOAT_KEYS | {"points", "axis", "spacing", "method", "outputs"}

# Decay-rate ratios default to the mercury-like configuration; fields and
# grid default to the undriven-coupling spectrum over +-10 gamma.
DEFAULTS: dict[str, str] = {
    "g41": "0", "g42": "4", "gp": "1e-4",
    "d41": "0", "d42": "0", "dp": "0",
    "gamma41": "1", "gamma42": "0.79", "gamma23": "0.14", "gamma13": "0.01",
    "lambda": "0",
    "N_per_cm3": "1e12", "wavelength_nm": "253.7",
    "gamma23_over_gamma": "0.14", "gamma_SI": "0",
    "axis": "DELTA_P", "start": "-10", "stop": "10", "points": "2001",
    "spacing": "LINEAR", "method": "NUMERIC", "outputs": "CHI_RE,CHI_IM",
}


def _parse_value(key: str, raw: str, where: str) -> object:
    norm = raw.strip()
    try:
        if key in _FLOAT_KEYS:
            return float(norm)
        if key == "points":
            return int(norm)
        if key == "axis":
            return Axis[norm.upper().replace("-", "_")]
        if key == "spacing":
            return Spacing[norm.upper()]
        if key == "method":
            return Method[norm.upper().replace("-", "_")]
        if key == "outputs":
            names = [t.strip().upper() for t in norm.split(",") if t.strip()]
            return tuple(Output[n] for n in names)
    except (ValueError, KeyError) as exc:
        raise ConfigError(
            f"{where}: cannot parse value {raw!r} for key {key!r}: {exc}",
            code="PARSE_ERROR",
        ) from exc
    raise ConfigError(f"{where}: unknown key {key!r}", code="UNKNOWN_KEY")


def parse_config(text: str, overrides: dict[str, str] | None = None) -> SweepSpec:
    """Parse a key-value configuration into a validated sweep spec.

    Unknown keys are rejected; malformed lines report their line number.
    ``overrides`` (e.g. from command-line --set flags) take precedence
    over file values and are parsed with the same rules.
    """
    values: dict[str, object] = {
        k: _parse_value(k, v, "default") for k, v in DEFAULTS.items()
    }

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {stripped!r}",
                code="PARSE_ERROR",
            )
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}", code="UNKNOWN_KEY"
            )
        values[key] = _parse_value(key, raw, f"line {lineno}")

    for key, raw in (overrides or {}).items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"override: unknown key {key!r}", code="UNKNOWN_KEY")
        values[key] = _parse_value(key, raw, f"override {key}")

    params = SystemParams(
        g41=values["g41"], g42=values["g42"], g_p=values["gp"],
        delta41=values["d41"], delta42=values["d42"], delta_p=values["dp"],
        gamma41=values["gamma41"], gamma42=values["gamma42"],
        gamma23=values["gamma23"], gamma13=values["gamma13"],
        lambda_pump=values["lambda"],
    )
    medium = MediumParams(
        number_density=values["N_per_cm3"] * 1e6,
        probe_wavelength=values["wavelength_nm"] * 1e-9,
        gamma23_over_gamma=values["gamma23_over_gamma"],
        gamma_si=values["gamma_SI"],
    )
    if not medium.number_density > 0:
        raise ConfigError("N_per_cm3 must be > 0", code="RANGE_ERROR")
    if not medium.probe_wavelength > 0:
        raise ConfigError("wavelength_nm must be > 0", code="RANGE_ERROR")
    if not 0 < medium.gamma23_over_gamma <= 1:
        raise ConfigError("gamma23_over_gamma must be in (0, 1]", code="RANGE_ERROR")

    spec = SweepSpec(
        params=params,
        medium=medium,
        axis=values["axis"],
        start=values["start"],
        stop=values["stop"],
        points=values["points"],
        spacing=values["spacing"],
        method=values["method"],
        outputs=values["outputs"],
    )
    spec.validate()
    return spec


def spec_metadata(spec: SweepSpec) -> dict[str, str]:
    """Resolved configuration of a sweep in config-key form, so that any
    CSV is self-describing."""
    p, m = spec.params, spec.medium
    return {
        "g41": repr(p.g41), "g42": repr(p.g42), "gp": repr(p.g_p),
        "d41": repr(p.delta41), "d42": repr(p.delta42), "dp": repr(p.delta_p),
        "gamma41": repr(p.gamma41), "gamma42": repr(p.gamma42),
        "gamma23": repr(p.gamma23), "gamma13": repr(p.gamma13),
        "lambda": repr(p.lambda_pump),
        "N_per_cm3": repr(m.number_density / 1e6),
        "wavelength_nm": repr(m.probe_wavelength / 1e-9),
        "gamma23_over_gamma": repr(m.gamma23_over_gamma),
        "gamma_SI": repr(m.gamma_si),
        "axis": spec.axis.value,
        "start": repr(spec.start), "stop": repr(spec.stop),
        "points": repr(spec.points),
        "spacing": spec.spacing.value,
        "method": spec.method.value,
        "outputs": ",".join(o.value for o in spec.outputs),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _format(value) -> str:
    if isinstance(value, str):
        return value
    return f"{value:.17g}"


def write_csv(table: SweepTable, destination: str | Path | IO[str]) -> None:
    """Serialize a sweep table: '#'-prefixed metadata and failure lines,
    a header of column names, then comma-separated rows at 17 significant
    digits (lossless float round-trip)."""
    lines: list[str] = []
    for key, value in table.metadata.items():
        lines.append(f"# {key} = {value}")
    for x, code in table.failures:
        lines.append(f"# failed: {_format(x)} code={code}")
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_format(v) for v in row))
    payload = "\n".join(lines) + "\n"

    if hasattr(destination, "write"):
        destination.write(payload)
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write {destination}: {exc}", code="IO_ERROR") from exc


def read_csv_rows(source: Iterable[str]) -> tuple[list[str], list[tuple[float, ...]]]:
    """Read back a table written by :func:`write_csv` (comments skipped)."""
    columns: list[str] = []
    rows: list[tuple[float, ...]] = []
    for line in source:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not columns:
            columns = line.split(",")
            continue
        rows.append(tuple(float(tok) for tok in line.split(",")))
    return columns, rows

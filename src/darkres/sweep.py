"""Declarative one-axis parameter scans with CSV persistence.

A sweep varies exactly one of: probe detuning, incoherent pump rate, or
drive Rabi frequency.  Every figure-style dataset is a single sweep (or a
few sweeps composed externally).  Failed points are logged with their
error code instead of aborting, and identical specs produce byte-identical
data.

Grid points are not evaluated independently when the outputs are all read
off the numeric steady state (CHI_RE, CHI_IM, POPULATIONS): they come from
the resolvent along the sweep axis (``steady_state._Resolvent``) built at
the middle grid point, and a point it refuses falls back to its own solve;
other sweeps solve point by point.  A DELTA_P sweep with DELTA0 runs one
zero search for all its points, since the search does not read the probe
detuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from enum import Enum
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from ._version import __version__
from .errors import ConfigError, NumericError, ParameterError, SimulationError
from .model import MediumParams, SystemParams
from .observables import (
    Method,
    chi_at,
    dispersion_slope,
    find_absorption_zero_auto,
    group_index,
    susceptibility,
)
from .steady_state import _index, _Resolvent, steady_state


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
_AXIS_FIELD = {Axis.DELTA_P: "delta_p", Axis.LAMBDA: "lambda_pump", Axis.G42: "g42"}

# Outputs read off the steady state alone, which the resolvent route gives.
_RESOLVENT_OUTPUTS = frozenset({Output.CHI_RE, Output.CHI_IM, Output.POPULATIONS})
# Grid points per vectorised block, so no temporary grows with the grid.
# A (128, 16) @ (16, 16) product stays below OpenBLAS's threading
# threshold; at 256 rows each product woke its thread pool, which cost up
# to 8 ms a product on a 2-core host.
RESOLVENT_CHUNK = 128
_POPULATIONS = [_index(i, i) for i in (1, 2, 3, 4)]

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
    re-runs the absorption-zero finder with an automatic bracket (once
    for a DELTA_P sweep, whose axis it does not read); SLOPE and NG are
    evaluated at the found DELTA0 when that output is also requested,
    otherwise at the base detuning.  SLOPE is the exact
    detuning derivative by the sweep's method (``slope_err`` is always 0)
    and NG takes chi' and that derivative from one evaluation.
    POPULATIONS are the numeric steady-state level occupations.
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
        for key in ("start", "stop"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite", code="RANGE_ERROR")
        if not self.start < self.stop:
            raise ConfigError("start must be < stop", code="RANGE_ERROR")
        if self.spacing is Spacing.LOG and not self.start > 0:
            raise ConfigError("LOG spacing requires start > 0", code="RANGE_ERROR")
        # the grid increases from start, so its last point bounds every other
        try:
            (last,) = self._values([self.points - 1])
        except OverflowError:
            last = math.inf
        if not math.isfinite(last):
            raise ConfigError(
                "the grid from start to stop overflows at its last point", code="RANGE_ERROR"
            )
        if self.axis in (Axis.LAMBDA, Axis.G42) and self.start < 0:
            raise ConfigError(f"{self.axis.value} axis must be >= 0", code="RANGE_ERROR")
        if not self.outputs:
            raise ConfigError("outputs must not be empty", code="RANGE_ERROR")
        if repeated := [o.value for k, o in enumerate(self.outputs) if o in self.outputs[:k]]:
            raise ConfigError(f"output {repeated[0]} repeated", code="RANGE_ERROR")
        if Output.NG in self.outputs and not self.medium.gamma_si > 0:
            raise ConfigError(
                "NG output requires gamma_SI > 0", code="RANGE_ERROR"
            )

    def grid(self) -> list[float]:
        """Axis values start + k*(stop-start)/(points-1), or the base-10
        logarithmic analog, reproduced to machine precision."""
        return self._values(range(self.points))

    def _values(self, ks: Iterable[int]) -> list[float]:
        """Grid points ``ks``; LOG raises ``OverflowError`` past max float."""
        n = self.points - 1
        if self.spacing is Spacing.LINEAR:
            span = self.stop - self.start
            return [self.start + k * span / n for k in ks]
        la, lb = math.log10(self.start), math.log10(self.stop)
        return [10.0 ** (la + k * (lb - la) / n) for k in ks]


@dataclass
class SweepTable:
    """Ordered sweep results plus provenance metadata and failure log."""

    columns: list[str]
    rows: list[tuple[float, ...]]
    metadata: dict[str, str]
    failures: list[tuple[float, str]]


def _point_params(spec: SweepSpec, x: float) -> SystemParams:
    return replace(spec.params, **{_AXIS_FIELD[spec.axis]: x})


def _evaluate_point(
    spec: SweepSpec, x: float, zero: float | str | None = None
) -> tuple[float, tuple[float, ...] | None, str | None]:
    """Compute all requested outputs at one axis value.  With DELTA0,
    ``zero`` is the crossing a DELTA_P sweep shares or its search's error
    code (:func:`run_sweep`); when None, the point runs its own search.

    Returns (x, row, None) on success or (x, None, error_code) when any
    requested output fails numerically.
    """
    if isinstance(zero, str):
        return x, None, zero
    p = _point_params(spec, x)
    try:
        values: list[float] = [x]
        delta0: float | None = None
        if Output.DELTA0 in spec.outputs:
            delta0 = find_absorption_zero_auto(p, spec.medium) if zero is None else zero
        eval_dp = delta0 if delta0 is not None else p.delta_p
        chi = dm = None
        if Output.CHI_RE in spec.outputs or Output.CHI_IM in spec.outputs:
            if spec.method is Method.NUMERIC and Output.POPULATIONS in spec.outputs:
                dm = steady_state(p)
                chi = susceptibility(dm.element(2, 3), spec.medium, p.g_p)
            else:
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
                if dm is None:
                    dm = steady_state(p)
                values.extend(dm.population(i) for i in (1, 2, 3, 4))
        return x, tuple(values), None
    except NumericError as exc:
        return x, None, exc.code


def _resolvent_sweep(
    spec: SweepSpec, grid: list[float]
) -> list[tuple[float, tuple[float, ...] | None, str | None]] | None:
    """Every grid point of a NUMERIC CHI/POPULATIONS sweep from the
    resolvent built at the middle grid point, or None when the route does
    not apply to the whole sweep: when the resolvent (at a trapped base
    too), one of its solves or the cross-check solve at the last grid
    point (no nearer the base than the first) raises, or when
    :meth:`_Resolvent.agrees` refuses that point against the cross-check.
    A point the gate refuses or at a zero rate or coupling (which changes
    the zero pattern of A) is solved by :func:`_evaluate_point` with no
    zero to share, since the route's outputs hold no DELTA0."""
    field = _AXIS_FIELD[spec.axis]
    base = (len(grid) - 1) // 2
    far = len(grid) - 1
    axis = np.array(grid)
    accepted = (axis > 0) | (spec.axis is Axis.DELTA_P)
    chi = np.empty(len(grid), dtype=complex)
    rows: list[tuple[float, ...]] = []
    try:
        resolvent = _Resolvent(_point_params(spec, grid[base]), field)
        chi_far = chi_at(_point_params(spec, grid[far]), spec.medium)
        # rejected rows may hold inf or NaN, which the gates have refused
        with np.errstate(invalid="ignore", over="ignore"):
            for lo in range(0, len(grid), RESOLVENT_CHUNK):
                block = slice(lo, lo + RESOLVENT_CHUNK)
                x, ok = resolvent.states(axis[block])
                accepted[block] &= ok
                chi[block] = susceptibility(x[:, _index(2, 3)], spec.medium, spec.params.g_p)
                columns = [axis[block]]
                for out in spec.outputs:
                    if out is Output.CHI_RE:
                        columns.append(chi[block].real)
                    elif out is Output.CHI_IM:
                        columns.append(chi[block].imag)
                    else:
                        columns.extend(x[:, _POPULATIONS].real.T)
                rows.extend(map(tuple, np.column_stack(columns).tolist()))
    except (SimulationError, np.linalg.LinAlgError):
        return None

    if not resolvent.agrees(chi, accepted, far, chi_far):
        return None
    return [
        (value, row, None) if ok else _evaluate_point(spec, value)
        for value, row, ok in zip(grid, rows, accepted.tolist())
    ]


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the sweep in grid order.

    A NUMERIC sweep whose outputs are all among CHI_RE, CHI_IM and
    POPULATIONS takes the resolvent route (see the module docstring):
    grid points are not evaluated independently, and its values agree
    with per-point ``chi_at`` and ``steady_state`` to about 1e-12 relative
    rather than bit for bit.  Points the route refuses, and every other
    sweep, are evaluated point by point; a DELTA_P sweep with DELTA0
    runs here the one zero search that all its points share.  Per-point
    numeric failures (for example NO_SIGN_CHANGE from the absorption-zero
    finder below the gain onset) are recorded in the failure log and
    excluded from the rows; spec-level validation errors are fatal.
    """
    spec.validate()
    grid = spec.grid()
    results = None
    if spec.method is Method.NUMERIC and _RESOLVENT_OUTPUTS.issuperset(spec.outputs):
        results = _resolvent_sweep(spec, grid)
    if results is None:
        zero = None
        if spec.axis is Axis.DELTA_P and Output.DELTA0 in spec.outputs:
            try:
                zero = find_absorption_zero_auto(_point_params(spec, grid[0]), spec.medium)
            except NumericError as exc:
                zero = exc.code
        results = [_evaluate_point(spec, x, zero) for x in grid]

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

# Every config key in file and metadata order, as
# key: (owner, field, k, default), where one config unit is 10**k SI units.
# Decay-rate ratios default to the mercury-like configuration; fields and
# grid default to the undriven-coupling spectrum over +-10 gamma.
_KEY_TABLE: dict[str, tuple[type, str, int, str]] = {
    "g41": (SystemParams, "g41", 0, "0"),
    "g42": (SystemParams, "g42", 0, "4"),
    "gp": (SystemParams, "g_p", 0, "1e-4"),
    "d41": (SystemParams, "delta41", 0, "0"),
    "d42": (SystemParams, "delta42", 0, "0"),
    "dp": (SystemParams, "delta_p", 0, "0"),
    "gamma41": (SystemParams, "gamma41", 0, "1"),
    "gamma42": (SystemParams, "gamma42", 0, "0.79"),
    "gamma23": (SystemParams, "gamma23", 0, "0.14"),
    "gamma13": (SystemParams, "gamma13", 0, "0.01"),
    "lambda": (SystemParams, "lambda_pump", 0, "0"),
    "N_per_cm3": (MediumParams, "number_density", 6, "1e12"),
    "wavelength_nm": (MediumParams, "probe_wavelength", -9, "253.7"),
    "gamma23_over_gamma": (MediumParams, "gamma23_over_gamma", 0, "0.14"),
    "gamma_SI": (MediumParams, "gamma_si", 0, "0"),
    "axis": (SweepSpec, "axis", 0, "DELTA_P"),
    "start": (SweepSpec, "start", 0, "-10"),
    "stop": (SweepSpec, "stop", 0, "10"),
    "points": (SweepSpec, "points", 0, "2001"),
    "spacing": (SweepSpec, "spacing", 0, "LINEAR"),
    "method": (SweepSpec, "method", 0, "NUMERIC"),
    "outputs": (SweepSpec, "outputs", 0, "CHI_RE,CHI_IM"),
}

# Keys that name an enum member, in any case and with '-' for '_'.
_ENUM_KEYS = {"axis": Axis, "spacing": Spacing, "method": Method}
# A decimal shift by k places never rounds in this context, so a scaled
# value is rounded once, from its exact decimal to the nearest float.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _scaled(text: str, k: int) -> float:
    return float(Decimal(text).scaleb(k, _EXACT))


def _parse_value(key: str, raw: str, where: str) -> object:
    if key not in _KEY_TABLE:
        raise ConfigError(f"{where}: unknown key {key!r}", code="UNKNOWN_KEY")
    norm = raw.strip()
    try:
        if key == "points":
            return int(norm)
        if key in _ENUM_KEYS:
            return _ENUM_KEYS[key][norm.upper().replace("-", "_")]
        if key == "outputs":
            names = [t.strip().upper() for t in norm.split(",") if t.strip()]
            return tuple(Output[n] for n in names)
        value, k = float(norm), _KEY_TABLE[key][2]  # float() checks the syntax
        return _scaled(norm, k) if k else value
    except (ValueError, KeyError, ArithmeticError) as exc:
        raise ConfigError(
            f"{where}: cannot parse value {raw!r} for key {key!r}: {exc}",
            code="PARSE_ERROR",
        ) from exc


def parse_config(text: str, overrides: dict[str, str] | None = None) -> SweepSpec:
    """Parse a key-value configuration into a validated sweep spec.

    Unknown keys are rejected; malformed lines report their line number.
    ``overrides`` (e.g. from command-line --set flags) take precedence
    over file values and are parsed with the same rules.  Medium values
    out of range, NaN or infinite are rejected here with ``RANGE_ERROR``.
    """
    values: dict[str, object] = {
        key: _parse_value(key, entry[3], "default") for key, entry in _KEY_TABLE.items()
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
        values[key] = _parse_value(key, raw, f"line {lineno}")

    for key, raw in (overrides or {}).items():
        values[key] = _parse_value(key, raw, f"override {key}")

    fields: dict[type, dict[str, object]] = {SystemParams: {}, MediumParams: {}, SweepSpec: {}}
    for key, (owner, field, _, _) in _KEY_TABLE.items():
        fields[owner][field] = values[key]
    medium = MediumParams(**fields[MediumParams])
    try:
        medium.check()
    except ParameterError as exc:
        raise ConfigError(str(exc), code="RANGE_ERROR") from exc
    spec = SweepSpec(
        params=SystemParams(**fields[SystemParams]), medium=medium, **fields[SweepSpec]
    )
    spec.validate()
    return spec


def spec_metadata(spec: SweepSpec) -> dict[str, str]:
    """Resolved configuration of a sweep in config-key form, so that any
    CSV is self-describing."""
    owners = {SystemParams: spec.params, MediumParams: spec.medium, SweepSpec: spec}
    metadata = {}
    for key, (owner, field, k, _) in _KEY_TABLE.items():
        value = getattr(owners[owner], field)
        if isinstance(value, Enum):
            metadata[key] = value.value
        elif isinstance(value, tuple):
            metadata[key] = ",".join(o.value for o in value)
        elif key == "points":
            metadata[key] = repr(int(value))
        elif not k:
            # float() first: the repr of a numpy float is not config syntax
            metadata[key] = repr(float(value))
        else:
            text = repr(float(value) / 10.0**k)
            if _scaled(text, k) != value:
                # the shortest repr of the value itself, shifted by k places
                text = format(Decimal(repr(float(value))).scaleb(-k, _EXACT), "g")
            metadata[key] = text
    metadata["version"] = __version__
    metadata["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return metadata


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
    template = ",".join(["%.17g"] * len(table.columns))
    for row in table.rows:
        # one template per row gives the digits of _format at a fraction of
        # the cost; a text label (the dressed-state rows) takes _format
        try:
            lines.append(template % tuple(row))
        except TypeError:
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

"""Command-line interface.

Subcommands are thin adapters over the library: ``spectrum`` and
``compare`` scan the probe detuning, ``sweep`` runs a generic one-axis
scan, ``zero`` and ``threshold`` run the feature finders, ``dressed``
prints the dressed-state decomposition.  All numeric output starts with
'#' comment lines echoing the fully resolved parameter set.

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 numeric
error (singular/trapped steady state or missing sign change).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import IO

from .analytic import dressed_states
from .errors import ConfigError, NumericError, SimulationError
from .observables import Method, find_absorption_zero_auto, find_gain_threshold
from .sweep import (
    Axis,
    Output,
    SweepSpec,
    SweepTable,
    parse_config,
    run_sweep,
    spec_metadata,
    write_csv,
)

# Points with |chi_numeric| above this enter the reported max relative
# difference in `compare`.
COMPARE_FLOOR = 1e-6

DEFAULT_THRESHOLD_RANGE = (1e-7, 1e-2)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="darkres",
        description="Probe susceptibility and group-index control in a "
        "driven four-level atom with interacting dark resonances.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--config", type=Path, help="configuration file")
    common.add_argument("--out", type=Path, help="output CSV path (default: stdout)")
    common.add_argument(
        "--method",
        choices=sorted(m.value.lower().replace("_", "-") for m in Method),
        help="susceptibility computation route",
    )
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _load_spec(args: argparse.Namespace) -> SweepSpec:
    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {args.config}: {exc}", code="IO_ERROR") from exc
    overrides: dict[str, str] = {}
    if args.method:
        overrides["method"] = args.method
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(
                f"--set expects KEY=VALUE, got {item!r}", code="PARSE_ERROR"
            )
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return parse_config(text, overrides)


def _emit(table: SweepTable, args: argparse.Namespace) -> int:
    write_csv(table, sys.stdout if args.out is None else args.out)
    return 0


def _emit_rows(
    spec: SweepSpec, args: argparse.Namespace, columns: list[str], rows: list[tuple],
    failures: list[tuple[float, str]] | None = None, **extra: str,
) -> int:
    """Write a table that is not a sweep, under the spec's metadata
    followed by the ``extra`` entries."""
    table = SweepTable(columns, rows, spec_metadata(spec) | extra, failures or [])
    return _emit(table, args)


def _cmd_spectrum(spec: SweepSpec, args: argparse.Namespace) -> int:
    spec = replace(spec, axis=Axis.DELTA_P, outputs=(Output.CHI_RE, Output.CHI_IM))
    return _cmd_sweep(spec, args)


def _cmd_sweep(spec: SweepSpec, args: argparse.Namespace) -> int:
    return _emit(run_sweep(spec), args)


def _cmd_zero(spec: SweepSpec, args: argparse.Namespace) -> int:
    crossings: list[float] = []
    for side in (-1, +1):
        try:
            crossings.append(find_absorption_zero_auto(spec.params, spec.medium, side=side))
        except NumericError as exc:
            if exc.code != "NO_SIGN_CHANGE":
                raise
    if not crossings:
        raise NumericError(
            "no vanishing-absorption detuning in the scanned brackets",
            code="NO_SIGN_CHANGE",
        )
    return _emit_rows(spec, args, ["delta0"], [(d,) for d in sorted(crossings)])


def _cmd_threshold(spec: SweepSpec, args: argparse.Namespace) -> int:
    if spec.axis is Axis.LAMBDA:
        lambda_range = (spec.start, spec.stop)
    else:
        lambda_range = DEFAULT_THRESHOLD_RANGE
    star = find_gain_threshold(spec.params, spec.medium, lambda_range)
    return _emit_rows(spec, args, ["lambda_star"], [(star,)])


def _cmd_dressed(spec: SweepSpec, args: argparse.Namespace) -> int:
    ds = dressed_states(spec.params.g41, spec.params.g42)
    labels = ("0", "+", "-")
    rows = [
        (label, energy, *amps)
        for label, energy, amps in zip(labels, ds.energies, ds.amplitudes)
    ]
    return _emit_rows(spec, args, ["state", "energy", "amp1", "amp2", "amp4"], rows)


def _cmd_compare(spec: SweepSpec, args: argparse.Namespace) -> int:
    analytic = spec.method
    if analytic is Method.NUMERIC:
        analytic = Method.ANALYTIC_FULL
    chi_spec = replace(spec, axis=Axis.DELTA_P, outputs=(Output.CHI_RE, Output.CHI_IM))
    tables = {m: run_sweep(replace(chi_spec, method=m)) for m in (analytic, Method.NUMERIC)}
    chi = {m: {d: complex(re, im) for d, re, im in t.rows} for m, t in tables.items()}
    # the numeric sweep comes last, so its failure code wins at a shared point
    failed = {d: code for t in tables.values() for d, code in t.failures}
    rows: list[tuple[float, ...]] = []
    failures: list[tuple[float, str]] = []
    max_rel = 0.0
    for d in chi_spec.grid():
        if d in failed:
            failures.append((d, failed[d]))
            continue
        chi_n, chi_a = chi[Method.NUMERIC][d], chi[analytic][d]
        rel = abs(chi_n - chi_a) / abs(chi_n) if abs(chi_n) > 0 else float("nan")
        if abs(chi_n) > COMPARE_FLOOR:
            max_rel = max(max_rel, rel)
        rows.append((d, chi_n.real, chi_n.imag, chi_a.real, chi_a.imag, rel))
    columns = [
        "delta_p", "chi_re_numeric", "chi_im_numeric",
        "chi_re_analytic", "chi_im_analytic", "rel_diff",
    ]
    return _emit_rows(
        spec, args, columns, rows, failures,
        analytic_method=analytic.value, max_rel_diff=f"{max_rel:.6g}",
    )


# Every subcommand once, in help order: name -> (help, handler).
_COMMANDS = {
    "spectrum": ("susceptibility vs probe detuning", _cmd_spectrum),
    "sweep": ("generic one-axis scan from the config", _cmd_sweep),
    "zero": ("detunings of vanishing absorption", _cmd_zero),
    "threshold": ("pump rate of the absorption-to-gain transition", _cmd_threshold),
    "dressed": ("dressed-state energies and amplitudes", _cmd_dressed),
    "compare": ("numeric vs analytic susceptibility, point by point", _cmd_compare),
}


def main(argv: list[str] | None = None, stderr: IO[str] | None = None) -> int:
    if stderr is None:
        stderr = sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=stderr)
        return 1
    try:
        spec = _load_spec(args)
        return _COMMANDS[args.command][1](spec, args)
    except SimulationError as exc:
        print(f"error [{exc.code}]: {exc}", file=stderr)
        return 3 if isinstance(exc, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())

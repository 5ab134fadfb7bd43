"""Correctness checks of each workload's outputs.

Every checker returns a list of problems; an empty list means the output
holds.  The references are the superoperator oracle in ``oracle.py`` and
properties the method must have, never a stored copy of earlier output.
"""

from __future__ import annotations

from dataclasses import replace

import oracle

# Oracle agreement of a numeric susceptibility, relative to the spectrum's
# peak |chi| (measured agreement: ~1e-14 relative).
CHI_RTOL = 1e-9
# Parity of the spectrum about zero detuning, relative to its peak |chi|.
PARITY_RTOL = 1e-9
# |Im chi| the program promises at a reported vanishing-absorption detuning.
ZERO_IM_TOL = 1e-8
# Finite-difference slope and group index against the exact derivative
# (measured agreement: ~1e-10 relative).
SLOPE_RTOL = 1e-6
# Relative bracket around a gain threshold inside which Im chi(0) must flip.
THRESHOLD_BRACKET = 1e-3

SPECTRUM_COLUMNS = ["delta_p", "chi_re", "chi_im"]
SWEEP_COLUMNS = ["lambda", "delta0", "slope", "slope_err", "ng"]


def parse_csv(text: str) -> tuple[list[str], list[str], list[list[float]]]:
    """Split a darkres CSV into its '# failed' lines, header and rows."""
    failed: list[str] = []
    columns: list[str] = []
    rows: list[list[float]] = []
    for line in text.splitlines():
        if line.startswith("#"):
            if line.startswith("# failed"):
                failed.append(line)
            continue
        if not columns:
            columns = line.split(",")
        else:
            rows.append([float(tok) for tok in line.split(",")])
    return failed, columns, rows


def check_spectrum(text: str, points: int, sample, reference) -> list[str]:
    """A CSV of ``points`` rows (delta_p, chi_re, chi_im) on a grid symmetric
    about zero; ``reference[k]`` is the oracle chi at row ``sample[k]``."""
    failed, columns, rows = parse_csv(text)
    problems = [f"spectrum reports {line!r}" for line in failed]
    if columns != SPECTRUM_COLUMNS:
        return problems + [f"spectrum columns {columns}, expected {SPECTRUM_COLUMNS}"]
    if len(rows) != points:
        return problems + [f"spectrum has {len(rows)} rows, expected {points}"]
    scale = max(abs(complex(re, im)) for _, re, im in rows)
    span = abs(rows[0][0])
    for k, want in zip(sample, reference):
        delta, re, im = rows[k]
        if abs(complex(re, im) - want) > CHI_RTOL * scale:
            problems.append(
                f"chi({delta:.6g}) = {complex(re, im):.10g}, oracle {want:.10g}"
            )
    for (d_lo, re_lo, im_lo), (d_hi, re_hi, im_hi) in zip(rows, reversed(rows)):
        if abs(d_lo + d_hi) > 1e-12 * span:
            problems.append(f"grid not symmetric: {d_lo!r} against {d_hi!r}")
        elif abs(im_lo - im_hi) > PARITY_RTOL * scale:
            problems.append(f"Im chi not even at {d_hi:.6g}: {im_lo!r} vs {im_hi!r}")
        elif abs(re_lo + re_hi) > PARITY_RTOL * scale:
            problems.append(f"Re chi not odd at {d_hi:.6g}: {re_lo!r} vs {re_hi!r}")
        if len(problems) > 10:
            break
    return problems


def check_threshold(params, medium, lam_star: float) -> list[str]:
    """The oracle's resonant Im chi must change sign across lam_star."""
    below = oracle.chi(
        replace(params, delta_p=0.0, lambda_pump=lam_star * (1 - THRESHOLD_BRACKET)), medium
    ).imag
    above = oracle.chi(
        replace(params, delta_p=0.0, lambda_pump=lam_star * (1 + THRESHOLD_BRACKET)), medium
    ).imag
    if below * above < 0:
        return []
    return [
        f"Im chi(0) keeps its sign across lambda* = {lam_star:.6g} "
        f"({below:.3g} below, {above:.3g} above)"
    ]


def check_pump_sweep(params, medium, columns, rows) -> list[str]:
    """Each row (lambda, delta0, slope, slope_err, ng) of a DELTA0,SLOPE,NG
    sweep against the oracle at (lambda, delta0)."""
    if list(columns) != SWEEP_COLUMNS:
        return [f"sweep columns {list(columns)}, expected {SWEEP_COLUMNS}"]
    problems = []
    for lam, delta0, slope, _, ng in rows:
        p = replace(params, lambda_pump=lam, delta_p=delta0)
        chi, dchi = oracle.chi_and_slope(p, medium)
        where = f"lambda={lam:.6g}, delta0={delta0:.6g}"
        if abs(chi.imag) > ZERO_IM_TOL:
            problems.append(f"{where}: oracle Im chi = {chi.imag:.3g} is not zero")
        if abs(slope - dchi.real) > SLOPE_RTOL * abs(dchi.real):
            problems.append(f"{where}: slope {slope:.10g}, exact {dchi.real:.10g}")
        want_ng = oracle.group_index(chi, dchi, medium)
        if abs(ng - want_ng) > SLOPE_RTOL * abs(want_ng):
            problems.append(f"{where}: group index {ng:.10g}, oracle {want_ng:.10g}")
    return problems


def check_chi(chi: complex, reference: complex) -> list[str]:
    """One susceptibility value against the oracle, relative to its size."""
    if abs(chi - reference) <= CHI_RTOL * abs(reference):
        return []
    return [f"chi {chi:.10g}, oracle {reference:.10g}"]

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; where an expectation turns out not
to be reproducible from the equations of motion, the test fails honestly
and prints the measured values (see the failing sub-checks' messages).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from darkres import (
    MediumParams,
    Method,
    NumericError,
    SystemParams,
    chi_at,
    coupling_hamiltonian,
    dispersion_slope,
    dressed_states,
    find_absorption_zero,
    find_absorption_zero_auto,
    find_gain_threshold,
    spike_half_width,
    steady_state,
)
import oracle
from test_steady_state import random_valid_params, walk_residual

MERCURY = dict(gamma41=1.0, gamma42=0.79, gamma23=0.14)
UNDRIVEN = SystemParams(g41=0.0, g42=4.0, g_p=1e-4, gamma13=0.01, **MERCURY)
SPIKE = SystemParams(g41=0.04, g42=4.0, g_p=1e-4, gamma13=0.0, **MERCURY)
PUMPED = replace(SPIKE, lambda_pump=4e-5)
MEDIUM = MediumParams()


def check(n, results):
    """Print one line for criterion ``n`` and assert all sub-checks."""
    ok = all(flag for flag, _ in results)
    detail = "; ".join(
        msg if flag else f"[FAILED] {msg}" for flag, msg in results
    )
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_solver_correctness_randomized():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_h = worst_t = worst_p = worst_r = 0.0
    for _ in range(100):
        p = random_valid_params(rng)
        dm = steady_state(p)
        worst_h = max(worst_h, float(np.max(np.abs(dm.rho - dm.rho.conj().T))))
        worst_t = max(worst_t, abs(dm.trace - 1.0))
        pops = np.diag(dm.rho).real
        worst_p = max(worst_p, float(np.max(np.maximum(-pops, pops - 1.0))))
        worst_r = max(worst_r, walk_residual(p, dm))
    elapsed = time.perf_counter() - t0
    check(1, [
        (worst_h <= 1e-10, f"hermiticity {worst_h:.1e}"),
        (worst_t <= 1e-10, f"trace {worst_t:.1e}"),
        (worst_p <= 1e-8, f"population bound excess {worst_p:.1e}"),
        (worst_r <= 1e-10, f"residual {worst_r:.1e}"),
        (elapsed < 5.0, f"runtime {elapsed:.2f}s"),
    ])


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    grid = np.linspace(-10.0, 10.0, 2000)
    worst = 0.0
    for d in grid:
        chi_n = chi_at(SPIKE, MEDIUM, d, Method.NUMERIC)
        if abs(chi_n) <= 1e-6:
            continue
        chi_a = chi_at(SPIKE, MEDIUM, d, Method.ANALYTIC_FULL)
        worst = max(worst, abs(chi_n - chi_a) / abs(chi_n))
    elapsed = time.perf_counter() - t0
    check(2, [
        (worst <= 1e-2, f"max rel deviation {worst:.3e} on 2000-point grid"),
        (elapsed < 10.0, f"runtime {elapsed:.2f}s"),
    ])


def test_criterion_3_qualitative_pump_oracle():
    grid = np.linspace(-1e-3, 1e-3, 201)
    floor = 1e-12  # |chi| below this carries no usable sign
    # The pump form is a gain Lorentzian (Im chi < 0 at every detuning),
    # while the numeric absorption turns positive beyond the zero crossings
    # +-delta0.  So the Im sign is compared only inside the gain core
    # delta- < dp < delta+, whose bounds come from the root finder rather
    # than from the signs on the grid.
    core = (
        find_absorption_zero(PUMPED, MEDIUM, (-1e-3, -1e-5)),
        find_absorption_zero(PUMPED, MEDIUM, (1e-5, 1e-3)),
    )

    def signs_and_worst(p):
        im_ok = re_ok = True
        first_bad = None
        worst = 0.0
        n_core = 0
        for d in grid:
            chi_n = chi_at(p, MEDIUM, d, Method.NUMERIC)
            chi_a = chi_at(p, MEDIUM, d, Method.ANALYTIC_PUMP)
            worst = max(worst, abs(chi_n - chi_a) / abs(chi_n))
            for attr in ("imag", "real"):
                if attr == "imag" and not core[0] < d < core[1]:
                    continue
                n_v, a_v = getattr(chi_n, attr), getattr(chi_a, attr)
                if abs(n_v) <= floor or abs(a_v) <= floor:
                    continue
                if attr == "imag":
                    n_core += 1
                if np.sign(n_v) != np.sign(a_v):
                    if attr == "imag":
                        im_ok = False
                    else:
                        re_ok = False
                    if first_bad is None:
                        first_bad = (attr, d, n_v, a_v)
        return im_ok, re_ok, worst, first_bad, n_core

    im_lo, re_lo, worst_lo, bad, n_core = signs_and_worst(PUMPED)
    _, _, worst_hi, _, _ = signs_and_worst(replace(PUMPED, lambda_pump=4e-4))
    bad_msg = (
        f" (first mismatch: {bad[0]} at dp={bad[1]:.2e}, num={bad[2]:+.2e} "
        f"vs pump-form={bad[3]:+.2e})" if bad else ""
    )
    check(3, [
        (
            im_lo and n_core > 0,
            f"Im sign agreement in the gain core ({core[0]:+.4e}, "
            f"{core[1]:+.4e}) at {n_core} points{bad_msg}",
        ),
        (re_lo, "Re sign agreement over +-1e-3"),
        (
            worst_hi < worst_lo,
            f"max rel error improves with pump: {worst_lo:.2f} -> {worst_hi:.2f}",
        ),
    ])


def test_criterion_4_spike_width():
    peak = chi_at(SPIKE, MEDIUM, 0.0).imag
    lo, hi = 0.0, 1e-4
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if chi_at(SPIKE, MEDIUM, mid).imag > peak / 2:
            lo = mid
        else:
            hi = mid
    hwhm = 0.5 * (lo + hi)
    check(4, [
        (
            abs(hwhm - 1.4e-5) <= 0.2 * 1.4e-5,
            f"numeric HWHM {hwhm:.3e} vs (g41/g42)^2*gamma23 = 1.4e-5",
        ),
    ])


def test_criterion_5_zero_crossings():
    results = []
    for bracket, sign in (((1e-5, 1e-3), +1), ((-1e-3, -1e-5), -1)):
        z = find_absorption_zero(PUMPED, MEDIUM, bracket)
        chi = chi_at(PUMPED, MEDIUM, z)
        slope, _ = dispersion_slope(PUMPED, MEDIUM, z)
        dev = abs(z - sign * 3.1e-4) / 3.1e-4
        results.extend([
            (dev <= 0.15, f"delta0={z:+.4e} vs {sign:+d}*3.1e-4 (dev {dev:.1%})"),
            (abs(chi.imag) <= 1e-8, f"|Im chi|={abs(chi.imag):.1e}"),
            (
                np.sign(chi.real) == sign and chi.real != 0,
                f"Re chi sign {np.sign(chi.real):+.0f}",
            ),
            (slope < 0, f"Re-slope {slope:+.2e}"),
        ])
    check(5, results)


def test_criterion_6_gain_threshold():
    star4 = find_gain_threshold(SPIKE, MEDIUM, (1e-8, 1e-2))
    stars, lambda0s = [star4], [spike_half_width(SPIKE)]
    for g in (10.0, 15.0):
        p = replace(SPIKE, g42=g)
        stars.append(find_gain_threshold(p, MEDIUM, (1e-8, 1e-2)))
        lambda0s.append(spike_half_width(p))
    within_factor_2 = 0.5 <= star4 / 2e-5 <= 2.0
    ordered = stars[0] > stars[1] > stars[2]
    consistent = lambda0s[0] > lambda0s[1] > lambda0s[2]
    check(6, [
        (within_factor_2, f"lambda*={star4:.3e} vs 2e-5"),
        (
            ordered and consistent,
            "ordering g42=4>10>15: "
            + ", ".join(f"{s:.2e}" for s in stars)
            + " (inversion scales "
            + ", ".join(f"{l:.2e}" for l in lambda0s)
            + ")",
        ),
    ])


def test_criterion_7_sign_structure():
    results = []
    for name, p, slope_sign, absorb_sign in (
        ("undriven-coupling", UNDRIVEN, +1, +1),
        ("spike", SPIKE, -1, +1),
        ("pumped", PUMPED, +1, -1),
    ):
        slope, _ = dispersion_slope(p, MEDIUM, 0.0)
        im0 = chi_at(p, MEDIUM, 0.0).imag
        results.extend([
            (
                np.sign(slope) == slope_sign,
                f"{name}: slope(0)={slope:+.2e}",
            ),
            (
                np.sign(im0) == absorb_sign,
                f"{name}: chi''(0)={im0:+.2e}",
            ),
        ])
    check(7, results)


@pytest.fixture(scope="module")
def pump_scan():
    """Zero-crossing position and dispersion slope at the crossing on a
    post-onset log grid of pump rates, for three drive strengths."""
    data = {}
    for g42 in (4.0, 7.0, 10.0):
        base = replace(SPIKE, g42=g42)
        star = find_gain_threshold(base, MEDIUM, (1e-8, 1e-2))
        # start safely above the threshold's own 1e-3 relative tolerance,
        # still inside the narrow band where the crossing sits in the gain
        # core and the dispersion slope there is positive
        lams = np.geomspace(star * 1.005, 1e-3, 25)
        rows = []
        for lam in lams:
            p = replace(base, lambda_pump=lam)
            try:
                z = find_absorption_zero_auto(p, MEDIUM)
            except NumericError:
                continue
            slope, _ = dispersion_slope(p, MEDIUM, z)
            rows.append((lam, z, slope))
        data[g42] = rows
    return data


def test_criterion_8_pump_scan_shape(pump_scan):
    results = []
    for g42, rows in pump_scan.items():
        lams = np.array([r[0] for r in rows])
        zeros = np.array([r[1] for r in rows])
        slopes = np.array([r[2] for r in rows])

        half = len(zeros) // 2
        increasing = bool(np.all(np.diff(zeros[:half]) > 0))

        decade = lams >= 1e-4
        z_decade = zeros[decade]
        sat_change = (z_decade.max() - z_decade.min()) / z_decade.min()
        ratio_first, ratio_last = zeros[decade][0] / lams[decade][0], zeros[-1] / lams[-1]

        i_max, i_min = int(np.argmax(slopes)), int(np.argmin(slopes))
        slope_shape = (
            slopes[i_max] > 0 and slopes[i_min] < 0 and i_max < i_min
            and slopes[-1] > slopes[i_min]
        )
        results.extend([
            (
                increasing,
                f"g42={g42:g}: delta0 strictly increasing on first half",
            ),
            (
                sat_change < 0.05,
                f"g42={g42:g}: delta0 change over last decade {sat_change:.1%} "
                f"(delta0/lambda {ratio_first:.2f}->{ratio_last:.2f})",
            ),
            (
                slope_shape,
                f"g42={g42:g}: slope max {slopes[i_max]:+.2e} before min "
                f"{slopes[i_min]:+.2e}",
            ),
        ])
    check(8, results)


def test_criterion_9_dressed_states():
    worst = 0.0
    rng = np.random.default_rng(99)
    pairs = [(0.04, 4.0), (0.0, 4.0)] + [tuple(rng.uniform(0.01, 5, 2)) for _ in range(20)]
    for g41, g42 in pairs:
        ds = dressed_states(g41, g42)
        h = coupling_hamiltonian(g41, g42)
        for energy, amps in zip(ds.energies, ds.amplitudes):
            v = np.array(amps)
            worst = max(worst, float(np.max(np.abs(h @ v - energy * v))))

    split = math.sqrt(UNDRIVEN.g41**2 + UNDRIVEN.g42**2)
    peaks = []
    for lo, hi in ((0.5, 8.0), (-8.0, -0.5)):
        grid = np.linspace(lo, hi, 376)
        absorption = [chi_at(UNDRIVEN, MEDIUM, d).imag for d in grid]
        peaks.append(grid[int(np.argmax(absorption))])
    dev = max(abs(abs(pk) - split) / split for pk in peaks)
    check(9, [
        (worst <= 1e-12, f"eigen-decomposition defect {worst:.1e}"),
        (
            dev <= 0.10,
            f"doublet maxima {peaks[1]:+.2f}/{peaks[0]:+.2f} vs +-{split:g} "
            f"(dev {dev:.1%})",
        ),
    ])


def test_criterion_10_group_index_range(pump_scan):
    results = []
    for gamma_si in (1e6, 1e7, 1e8):
        m = replace(MEDIUM, gamma_si=gamma_si)
        ngs = []
        for lam, z, slope in pump_scan[4.0]:
            chi = chi_at(replace(SPIKE, lambda_pump=lam), MEDIUM, z)
            ngs.append(oracle.group_index(chi, slope, m))
        ngs = np.array(ngs)
        results.append((
            ngs.max() > 1e2 and ngs.min() < 0,
            f"gamma_SI={gamma_si:.0e}: ng spans [{ngs.min():.2e}, {ngs.max():.2e}]",
        ))
    p = replace(SPIKE, lambda_pump=pump_scan[4.0][5][0])
    z = pump_scan[4.0][5][1]
    results.append((
        abs(chi_at(p, MEDIUM, z).imag) <= 1e-8,
        "absorption vanishes at the evaluation detuning",
    ))
    check(10, results)

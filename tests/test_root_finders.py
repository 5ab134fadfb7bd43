"""The bracketed Newton root finders against the scan-and-bisect finders
they replaced, kept here as a reference, and the safeguard of the Newton
routine itself."""

import math
from dataclasses import replace

import numpy as np
import pytest

from darkres import (
    MediumParams,
    NumericError,
    SystemParams,
    auto_zero_bracket,
    chi_at,
    find_absorption_zero,
    find_absorption_zero_auto,
    find_gain_threshold,
)
from darkres import observables
from darkres.observables import SIGN_FLOOR, ZERO_BRACKET_EXPANSIONS, _bracketed_newton

MERCURY = dict(gamma41=1.0, gamma42=0.79, gamma23=0.14)
UNDRIVEN = SystemParams(g41=0.0, g42=4.0, g_p=1e-4, gamma13=0.01, **MERCURY)
SPIKE = SystemParams(g41=0.04, g42=4.0, g_p=1e-4, gamma13=0.0, **MERCURY)
PUMPED = replace(SPIKE, lambda_pump=4e-5)
MEDIUM = MediumParams()
SCAN_POINTS = 200


# --- reference: 201-point sign scan, then bisection of the first change ---

def _first_sign_change(xs, values):
    signs = np.where(np.abs(values) <= SIGN_FLOOR, 0.0, np.sign(values))
    for k in range(len(xs) - 1):
        if signs[k] * signs[k + 1] < 0:
            return float(xs[k]), float(xs[k + 1])
    return None


def _scan_and_bisect(f, xs, rel_tol):
    pair = _first_sign_change(xs, np.array([f(x) for x in xs]))
    if pair is None:
        raise NumericError("no sign change", code="NO_SIGN_CHANGE")
    a, b = pair
    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if (b - a) <= rel_tol * max(abs(a), abs(b)):
            break
        fm = f(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def reference_zero(p, m, bracket):
    xs = np.linspace(bracket[0], bracket[1], SCAN_POINTS + 1)
    return _scan_and_bisect(lambda d: chi_at(p, m, d).imag, xs, 1e-6)


def reference_zero_auto(p, m):
    lo, hi = auto_zero_bracket(p)
    for _ in range(ZERO_BRACKET_EXPANSIONS + 1):
        try:
            return reference_zero(p, m, (lo, hi))
        except NumericError:
            hi *= 10.0
    raise NumericError("no sign change", code="NO_SIGN_CHANGE")


def reference_threshold(p, m, lambda_range):
    lo, hi = lambda_range
    xs = np.geomspace(lo, hi, SCAN_POINTS + 1) if lo > 0 else np.linspace(lo, hi, SCAN_POINTS + 1)
    return _scan_and_bisect(
        lambda lam: chi_at(replace(p, lambda_pump=lam), m, 0.0).imag, xs, 1e-3
    )


def outcome(finder, *args):
    """The root, or the error code when the finder raises."""
    try:
        return finder(*args)
    except NumericError as exc:
        return exc.code


def assert_same(new, ref, rel):
    if isinstance(ref, str):
        assert new == ref
    else:
        assert not isinstance(new, str), new
        assert new == pytest.approx(ref, rel=rel)


# --- the finders against the reference ---

@pytest.mark.parametrize("bracket", [(1e-5, 1e-3), (-1e-3, -1e-5)])
def test_zero_matches_reference_at_pumped_config(bracket):
    assert_same(
        find_absorption_zero(PUMPED, MEDIUM, bracket),
        reference_zero(PUMPED, MEDIUM, bracket),
        1e-6,
    )


def test_zero_matches_reference_on_acceptance_pump_scan_grid():
    """Every point of the acceptance suite's pump scan: the same hits and
    misses, and the same roots within 1e-6."""
    hits = 0
    for g42 in (4.0, 7.0, 10.0):
        base = replace(SPIKE, g42=g42)
        star = find_gain_threshold(base, MEDIUM, (1e-8, 1e-2))
        for lam in np.geomspace(star * 1.005, 1e-3, 25):
            p = replace(base, lambda_pump=lam)
            ref = outcome(reference_zero_auto, p, MEDIUM)
            assert_same(outcome(find_absorption_zero_auto, p, MEDIUM), ref, 1e-6)
            hits += not isinstance(ref, str)
    assert hits == 75


@pytest.mark.parametrize("g42", [4.0, 10.0, 15.0])
def test_threshold_matches_reference(g42):
    p = replace(SPIKE, g42=g42)
    star = find_gain_threshold(p, MEDIUM, (1e-8, 1e-2))
    assert star == pytest.approx(reference_threshold(p, MEDIUM, (1e-8, 1e-2)), rel=1e-3)


def test_threshold_from_zero_pump_matches_reference():
    star = find_gain_threshold(SPIKE, MEDIUM, (0.0, 1e-4))
    assert star == pytest.approx(reference_threshold(SPIKE, MEDIUM, (0.0, 1e-4)), rel=1e-3)


def test_same_no_sign_change_cases_as_reference():
    cases = [
        (find_absorption_zero, reference_zero, (SPIKE, MEDIUM, (1e-5, 1e-3))),
        (find_gain_threshold, reference_threshold, (UNDRIVEN, MEDIUM, (1e-7, 1e-2))),
    ]
    # sub-threshold pump rates: no crossing out to the widest auto bracket
    for lam in np.geomspace(1e-7, 1e-5, 7):
        cases.append(
            (find_absorption_zero_auto, reference_zero_auto,
             (replace(SPIKE, lambda_pump=lam), MEDIUM))
        )
    for new, ref, args in cases:
        assert outcome(ref, *args) == "NO_SIGN_CHANGE"
        assert outcome(new, *args) == "NO_SIGN_CHANGE"


def test_bracket_with_two_crossings_has_no_sign_change():
    """Both bracket ends sit in the absorbing wings, so the ends share a
    sign although the bracket holds the crossings at +-delta0; the scan
    used to find the first of them."""
    assert reference_zero(PUMPED, MEDIUM, (-1e-3, 1e-3)) == pytest.approx(-2.6241e-4, rel=1e-4)
    with pytest.raises(NumericError) as exc:
        find_absorption_zero(PUMPED, MEDIUM, (-1e-3, 1e-3))
    assert exc.value.code == "NO_SIGN_CHANGE"


def test_end_below_sign_floor_is_no_sign():
    # Im chi at the zero crossing itself is below the sign floor
    z = find_absorption_zero(PUMPED, MEDIUM, (1e-5, 1e-3))
    assert abs(chi_at(PUMPED, MEDIUM, z).imag) <= SIGN_FLOOR
    with pytest.raises(NumericError) as exc:
        find_absorption_zero(PUMPED, MEDIUM, (z, 1e-3))
    assert exc.value.code == "NO_SIGN_CHANGE"


def test_miss_costs_two_solves(monkeypatch):
    calls = []
    real = observables.chi_at

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(observables, "chi_at", counting)
    with pytest.raises(NumericError):
        find_absorption_zero(SPIKE, MEDIUM, (1e-5, 1e-3))
    assert len(calls) == 2


# --- the safeguarded Newton routine ---

def arctan_shifted(x):
    return math.atan(x - 3.0), 1.0 / (1.0 + (x - 3.0) ** 2)


def test_newton_falls_back_to_bisection_on_overshoot():
    seen = []

    def f(x):
        seen.append(x)
        return arctan_shifted(x)

    a, b = 0.0, 40.0
    root = _bracketed_newton(f, a, b, f(a)[0], f(b)[0], rel_tol=1e-12)
    assert root == pytest.approx(3.0, abs=1e-10)
    # the first interior iterate is far out on the arctan plateau, where
    # the plain Newton step lands outside the bracket
    first = seen[2]
    value, slope = arctan_shifted(first)
    assert not a < first - value / slope < b
    assert seen[3] == pytest.approx(0.5 * (a + first))


def cubic_without_slope(x):
    return (x - 0.7) ** 3, 0.0


def test_newton_bisects_on_zero_derivative():
    root = _bracketed_newton(cubic_without_slope, 0.0, 3.0, -0.343, 12.167, abs_tol=1e-9)
    assert root == pytest.approx(0.7, abs=1e-9)


def test_newton_iteration_cap(monkeypatch):
    monkeypatch.setattr(observables, "NEWTON_MAX_ITER", 5)
    with pytest.raises(NumericError) as exc:
        _bracketed_newton(cubic_without_slope, 0.0, 3.0, -0.343, 12.167, abs_tol=1e-12)
    assert exc.value.code == "NO_CONVERGENCE"


def test_newton_converges_quadratically_near_the_root():
    seen = []

    def f(x):
        seen.append(x)
        return x * x - 2.0, 2.0 * x

    root = _bracketed_newton(f, 1.0, 2.0, -1.0, 2.0, rel_tol=1e-15)
    assert root == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert len(seen) <= 6

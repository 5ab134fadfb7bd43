"""Susceptibility, dispersion slope, group index and spectral features.

The probe-transition coherence from either the numeric solver or one of
the closed forms is converted into the complex susceptibility
chi = chi' + i*chi''; chi'' > 0 is absorption, chi'' < 0 gain.  On top of
that sit derivative and root-finding utilities: the dispersion slope and
the group index, the detunings of vanishing absorption, and the pump
strength at which the narrow absorption feature turns into gain.  Every
derivative is exact: on the numeric route one more solve with the matrix
that the steady state it differentiates carries, for a closed form from
its rational dependence on the probe detuning.  The root finders' bracket
ends and Newton iterates are hint states (LAPACK solves under the gate);
every root they report, and every miss, passes one ``steady_state`` solve.
"""

from __future__ import annotations

import math
from dataclasses import replace
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .analytic import _incoherent, _limit, _weak_probe, spike_half_width
from .errors import ConfigError, NumericError, ParameterError
from .model import PARAM_FIELDS, WEAK_PROBE_FACTOR, MediumParams, SystemParams
from .steady_state import DensityMatrix, _basis, _hint_state, _index
from .steady_state import steady_state, steady_state_derivative

SPEED_OF_LIGHT = 299792458.0  # m/s

# Verified upper bound on |Im chi| at a reported zero crossing; well below
# the ~1e-4 feature amplitudes of the spectra.
ZERO_IM_TOL = 1e-8
# |Im chi| below this is numerical zero and carries no usable sign.
SIGN_FLOOR = 1e-12
ZERO_REL_TOL = 1e-6
THRESHOLD_REL_TOL = 1e-3
# Evaluations before a bracketed Newton search gives up; bisection alone
# shrinks a bracket by 2**-100 in that many.
NEWTON_MAX_ITER = 100
# Tenfold widenings of find_absorption_zero_auto's bracket before it gives up.
ZERO_BRACKET_EXPANSIONS = 3
# Relative half width of the bracket around the first-order crossing that
# find_absorption_zero_auto tries first; the first-order error is ~1e-5
# relative at g_p = 1e-4 and grows towards the onset of transparency.
_SEED_BRACKET_REL = 1e-2
# The probe coherences rho13, rho23 and rho43 among the 16 unknowns: at
# g_p = 0 their block of the steady-state matrix is closed.
_PROBE_BLOCK = [_index(1, 3), _index(2, 3), _index(4, 3)]


class Method(str, Enum):
    """Provenance of a susceptibility value."""

    NUMERIC = "NUMERIC"
    ANALYTIC_FULL = "ANALYTIC_FULL"
    ANALYTIC_LIMIT = "ANALYTIC_LIMIT"
    ANALYTIC_PUMP = "ANALYTIC_PUMP"


# Closed forms as (rho23, d rho23 / d delta_p) at the detuning in ``p``.
_CLOSED_FORMS = {
    Method.ANALYTIC_FULL: _weak_probe,
    Method.ANALYTIC_LIMIT: _limit,
    Method.ANALYTIC_PUMP: _incoherent,
}


def probe_coherence(p: SystemParams, method: Method = Method.NUMERIC) -> complex:
    """Probe-transition coherence via the selected computation route."""
    if method is Method.NUMERIC:
        return steady_state(p).element(2, 3)
    return _CLOSED_FORMS[method](p)[0]


def chi_prefactor(m: MediumParams) -> float:
    """Scale factor between the normalized coherence and the
    susceptibility: 3 N lambda_p^3 / (4 pi^2) * (gamma23/gamma)."""
    m.check()
    return (
        3.0
        * m.number_density
        * m.probe_wavelength**3
        / (4.0 * math.pi**2)
        * m.gamma23_over_gamma
    )


def susceptibility(rho23: complex, m: MediumParams, g_p: float) -> complex:
    """Linear probe susceptibility from the probe coherence.

    ``g_p`` is in units of the reference rate, so the coherence is
    normalized by it directly.
    """
    if not g_p > 0:
        raise ParameterError("g_p must be > 0 for susceptibility", code="NEGATIVE_RABI")
    return chi_prefactor(m) * rho23 / g_p


def chi_at(
    p: SystemParams,
    m: MediumParams,
    delta_p: float | None = None,
    method: Method = Method.NUMERIC,
) -> complex:
    """Susceptibility at one probe detuning (default: the one in ``p``)."""
    if delta_p is not None:
        p = replace(p, delta_p=delta_p)
    return susceptibility(probe_coherence(p, method), m, p.g_p)


@lru_cache(maxsize=1)
def _chi_and_derivative(p: SystemParams, m: MediumParams) -> tuple[complex, complex]:
    """Numeric chi at ``p`` and its exact probe-detuning derivative: one
    steady state and one derivative solve with the same matrix, since chi
    is linear in rho23.  The last result is kept, so the zero finder's
    verification at delta0 also serves the slope and group index there."""
    dm = steady_state(p)
    drho = steady_state_derivative(dm, "delta_p")
    return (
        susceptibility(dm.element(2, 3), m, p.g_p),
        susceptibility(complex(drho[1, 2]), m, p.g_p),
    )


def _chi_and_slope(
    p: SystemParams, m: MediumParams, delta_p: float, method: Method
) -> tuple[complex, complex]:
    """Chi at ``delta_p`` and its exact detuning derivative by ``method``:
    the steady state and its derivative solve on the numeric route, the
    closed form's own derivative otherwise."""
    p = replace(p, delta_p=delta_p)
    if method is Method.NUMERIC:
        return _chi_and_derivative(p, m)
    rho, drho = _CLOSED_FORMS[method](p)
    return susceptibility(rho, m, p.g_p), susceptibility(drho, m, p.g_p)


def dispersion_slope(
    p: SystemParams,
    m: MediumParams,
    delta_p: float,
    method: Method = Method.NUMERIC,
) -> tuple[float, float]:
    """Slope of the dispersion chi' with respect to the probe detuning, as
    (slope, error estimate).

    The slope is the exact detuning derivative for every method, so the
    error estimate is always 0.  It raises where ``chi_at`` would: a
    closed form at its own degenerate point gives ``DIVISION_DEGENERATE``.
    """
    _, dchi = _chi_and_slope(p, m, delta_p, method)
    return dchi.real, 0.0


def group_index(
    p: SystemParams,
    m: MediumParams,
    delta_p: float,
    method: Method = Method.NUMERIC,
) -> float:
    """Group index n_g = 1 + 2 pi chi' + 2 pi omega_p dchi'/domega_p.

    The detuning derivative is converted to a frequency derivative with
    the user-supplied reference rate in rad/s; negative values (negative
    group velocity) are legitimate output.  chi' and its exact detuning
    derivative come from one evaluation, as in :func:`dispersion_slope`.
    """
    if not m.gamma_si > 0:
        raise ConfigError(
            "gamma_SI must be supplied (> 0) for the group index",
            code="RANGE_ERROR",
        )
    chi, dchi = _chi_and_slope(p, m, delta_p, method)
    omega_p = 2 * math.pi * SPEED_OF_LIGHT / m.probe_wavelength
    return 1.0 + 2 * math.pi * chi.real + 2 * math.pi * omega_p * dchi.real / m.gamma_si


def _bracketed_newton(
    f: Callable[[float], tuple[float, float]],
    a: float,
    b: float,
    fa: float,
    fb: float,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
) -> float:
    """Root of ``f`` in (a, b), given end values ``fa`` and ``fb`` of
    strictly opposite sign; ``f(x)`` returns the value and the derivative.

    Safeguarded Newton (Brent 1973, ch. 4): start at the secant point of
    the ends, shrink the bracket to the sign change at every evaluation,
    and take the bisection step whenever the Newton step leaves the
    bracket (or is undefined).  Stops when a step is no larger than
    ``abs_tol + rel_tol * |x|``; raises ``NO_CONVERGENCE`` after
    ``NEWTON_MAX_ITER`` evaluations.
    """
    x = a - fa * (b - a) / (fb - fa)
    if not a < x < b:
        x = 0.5 * (a + b)
    for _ in range(NEWTON_MAX_ITER):
        fx, dfx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0) == (fa < 0):
            a, fa = x, fx
        else:
            b = x
        x_new = x - fx / dfx if dfx != 0 else math.nan
        if not a < x_new < b:
            x_new = 0.5 * (a + b)
        if abs(x_new - x) <= abs_tol + rel_tol * abs(x_new):
            return x_new
        x = x_new
    raise NumericError(
        f"root finder did not converge in {NEWTON_MAX_ITER} steps",
        code="NO_CONVERGENCE",
    )


def _signs_differ(f_lo: float, f_hi: float) -> bool:
    """Whether both end values carry a sign (above ``SIGN_FLOOR``) and the
    signs differ."""
    return abs(f_lo) > SIGN_FLOOR and abs(f_hi) > SIGN_FLOOR and f_lo * f_hi < 0


def _im_chi_crossing(
    p: SystemParams, m: MediumParams, field: str, lo: float, hi: float,
    tol: float, no_sign_change: str, in_log: bool = False,
) -> float:
    """Value x in (lo, hi) of the ``SystemParams`` field ``field`` at which
    the numeric chi'' changes sign.

    Both ends must carry a sign, else ``NO_SIGN_CHANGE`` saying
    ``no_sign_change``; then safeguarded Newton on the exact derivative
    along ``field``, to relative tolerance ``tol`` in x, or in u = ln(x)
    when ``in_log``.  Both ends and the iterates are hint states
    (``steady_state._hint_state``); a value whose hint or its derivative
    is refused is solved by ``steady_state``.  So the root is a hint too,
    and the caller solves it once more; a miss is reported only when
    ``chi_at`` confirms it at the end farther from zero."""
    def at(x: float) -> SystemParams:
        return replace(p, **{field: x})

    def im_chi(x: float) -> float:
        try:
            dm = _hint_state(at(x))
        except (NumericError, np.linalg.LinAlgError):
            dm = steady_state(at(x))
        return susceptibility(dm.element(2, 3), m, p.g_p).imag

    def im_chi_and_slope(x: float) -> tuple[float, float]:
        try:
            dm = _hint_state(at(x))
            drho = steady_state_derivative(dm, field)
        except (NumericError, np.linalg.LinAlgError):
            dm = steady_state(at(x))
            drho = steady_state_derivative(dm, field)
        chi = susceptibility(dm.element(2, 3), m, p.g_p)
        return chi.imag, susceptibility(complex(drho[1, 2]), m, p.g_p).imag

    f_lo, f_hi = im_chi(lo), im_chi(hi)
    if not _signs_differ(f_lo, f_hi):
        if abs(lo) > abs(hi):
            f_lo = chi_at(at(lo), m).imag
        else:
            f_hi = chi_at(at(hi), m).imag
        if not _signs_differ(f_lo, f_hi):
            raise NumericError(no_sign_change, code="NO_SIGN_CHANGE")
    if not in_log:
        return _bracketed_newton(im_chi_and_slope, lo, hi, f_lo, f_hi, rel_tol=tol)

    def in_u(u: float) -> tuple[float, float]:
        x = math.exp(u)
        value, slope = im_chi_and_slope(x)
        return value, x * slope

    return math.exp(_bracketed_newton(in_u, math.log(lo), math.log(hi), f_lo, f_hi, abs_tol=tol))


def auto_zero_bracket(p: SystemParams) -> tuple[float, float]:
    """Default search interval for a vanishing-absorption detuning:
    (0, 10x the larger of the pump rate and the spike half width].

    :func:`find_absorption_zero_auto` widens it by decades, up to
    ``ZERO_BRACKET_EXPANSIONS`` times; the widest of these brackets is
    also the domain in which it accepts a first-order crossing."""
    scale = p.lambda_pump
    if p.g42 > 0:
        scale = max(scale, spike_half_width(p))
    if scale <= 0:
        raise NumericError(
            "no narrow feature scale to bracket a zero crossing",
            code="NO_SIGN_CHANGE",
        )
    return (0.0, 10.0 * scale)


def _first_order_zero(dm0: DensityMatrix, side: int) -> float:
    """Detuning nearest 0 on the ``side`` half-axis at which chi'' vanishes
    to first order in the probe field, from the probe-free state ``dm0``
    (g_p = delta_p = 0) and the matrix it carries.

    At g_p = 0 the block S = (rho13, rho23, rho43) of the matrix has no
    entries outside S, the probe detuning enters it as +i delta on its
    diagonal, and the probe-free state x0 does not depend on delta.  So
    the first-order rho23 / g_p is [(M + z I)^-1 r]_rho23 with z = i delta,
    M the block at delta = 0 and r = -(B_gp x0)[S].  By Cayley-Hamilton
    that is N(z) / D(z) with D = det(M + z I) = z^3 + t z^2 + e2 z + det M
    and N the rho23 entry of adj(M + z I) r = z^2 r + z (t r - M r) +
    adj(M) r, where t = tr M, e2 = (t^2 - tr M^2) / 2 and adj(M) = M^2 -
    t M + e2 I.  Im(N / D) vanishes at the real roots of the real
    polynomial Im(N conj(D)) in delta, of degree <= 4: its delta^5
    coefficient, -Re r[rho23] = Im(rho22 - rho33), is zero for a Hermitian
    x0 and is dropped, since its round-off would be a spurious root that
    moves the others.  Solves nothing.  Raises ``NO_SIGN_CHANGE`` when no
    real root lies on the side.
    """
    r = -(_basis()[1][PARAM_FIELDS.index("g_p")] @ dm0.rho.reshape(16))[_PROBE_BLOCK]
    m = dm0.system_matrix[np.ix_(_PROBE_BLOCK, _PROBE_BLOCK)]
    m2 = m @ m
    t = np.trace(m)
    e2 = 0.5 * (t * t - np.trace(m2))
    adj = m2 - t * m + e2 * np.eye(3)
    det = (m @ adj)[0, 0]
    # coefficients in delta, highest power first; z^k = i^k delta^k
    den = np.array([-1j, -t, 1j * e2, det])
    num = np.array([-r[1], 1j * (t * r[1] - (m @ r)[1]), (adj @ r)[1]])
    sign = 1.0 if side >= 0 else -1.0
    roots = np.roots(np.convolve(num, den.conj()).imag[1:])
    real = [z.real for z in roots if z.imag == 0 and sign * z.real > 0]
    if not real:
        raise NumericError("no first-order crossing on this side", code="NO_SIGN_CHANGE")
    return float(min(real, key=abs))


def _seed_bracket(p: SystemParams, side: int, reach: float) -> tuple[float, float] | None:
    """Bracket on the positive half-axis, +-``_SEED_BRACKET_REL`` relative
    around |first-order crossing| from the hint state of ``p`` at g_p =
    delta_p = 0, or None: for a probe that is not weak, when that state or
    the crossing cannot be computed, and when it lies beyond ``reach``."""
    if not p.g_p <= WEAK_PROBE_FACTOR * p.gamma23:
        return None
    try:
        d1 = abs(_first_order_zero(_hint_state(replace(p, g_p=0.0, delta_p=0.0)), side))
    except (NumericError, np.linalg.LinAlgError):
        return None
    if not d1 <= reach:
        return None
    return (d1 * (1.0 - _SEED_BRACKET_REL), d1 * (1.0 + _SEED_BRACKET_REL))


def find_absorption_zero(
    p: SystemParams,
    m: MediumParams,
    bracket: tuple[float, float],
) -> float:
    """Probe detuning at which the absorption chi'' crosses zero.

    chi'' must carry strictly opposite signs at the two bracket ends
    (|chi''| <= ``SIGN_FLOOR`` counts as no sign); safeguarded Newton on
    the exact detuning derivative of the steady state then refines the
    crossing to relative tolerance 1e-6, and one more steady state verifies
    |chi''| <= 1e-8 there.  That verification also solves the detuning
    derivative at the root, under the derivative's own gates (a refused
    derivative refuses the root), so that ``dispersion_slope`` and
    ``group_index`` at the returned root solve nothing more.  The ends and
    the iterates are hint states (one whose hint is refused is solved), so
    a root costs that one ``steady_state``, and a miss the one at the end
    farther from zero.  Raises ``NO_SIGN_CHANGE`` when the ends share a
    sign: when chi'' is single-signed over the bracket (pump below the
    onset of transparency), and also when the bracket holds an even number
    of crossings, e.g. one straddling the whole gain core.
    Uses the numeric route only: the crossing arises from the interplay of
    the gain feature with the Autler-Townes background, which no single
    closed form captures.
    """
    lo, hi = bracket
    if not hi > lo:
        raise ConfigError("bracket must satisfy lo < hi", code="RANGE_ERROR")

    root = _im_chi_crossing(
        p, m, "delta_p", lo, hi, ZERO_REL_TOL,
        "absorption does not change sign between the bracket ends",
    )
    chi, _ = _chi_and_derivative(replace(p, delta_p=root), m)
    if not abs(chi.imag) <= ZERO_IM_TOL:
        raise NumericError(
            "zero crossing did not verify below tolerance", code="NO_CONVERGENCE"
        )
    return root


def find_absorption_zero_auto(p: SystemParams, m: MediumParams, side: int = +1) -> float:
    """Locate a vanishing-absorption detuning without a user bracket.

    ``side`` selects the positive or negative detuning half-axis.  Each
    bracket is tried by ``find_absorption_zero``, and the first root found
    is returned.  For a weak probe the first bracket is a tight one around
    the exact first-order crossing (``_seed_bracket``), which lies
    within ~1e-5 relative of the true one at g_p = 1e-4; it is a hint
    only, so a seed that cannot be computed, or any ``NumericError`` from
    its bracket, moves on to the decade brackets.
    These start from the automatic bracket and widen it tenfold, up to
    ``ZERO_BRACKET_EXPANSIONS`` times, while the ends share a sign (a miss
    costs one solve, at the end that moves): for strong drives the
    crossing sits many gain half widths out (the gain wing decays slowly
    against a background suppressed by optical pumping), beyond any fixed
    small multiple of the feature scale.  A first-order crossing beyond
    the widest decade bracket is not tried.
    """
    lo, hi = auto_zero_bracket(p)
    decades = [(lo, hi)]
    for _ in range(ZERO_BRACKET_EXPANSIONS):
        hi *= 10.0
        decades.append((lo, hi))
    seed = _seed_bracket(p, side, hi)
    for bracket in ([seed] if seed else []) + decades:
        a, b = bracket
        try:
            return find_absorption_zero(p, m, (a, b) if side >= 0 else (-b, -a))
        except NumericError as exc:
            if bracket is not seed and exc.code != "NO_SIGN_CHANGE":
                raise
    raise NumericError(
        "no vanishing-absorption detuning up to the expanded bracket",
        code="NO_SIGN_CHANGE",
    )


def find_gain_threshold(
    p: SystemParams,
    m: MediumParams,
    lambda_range: tuple[float, float],
) -> float:
    """Pump rate at which the resonant absorption turns into gain.

    chi''(delta_p = 0) must carry strictly opposite signs at the two ends
    of the pump range; safeguarded Newton on the exact pump derivative of
    the steady state then refines the sign change to relative tolerance
    1e-3, in u = ln(lambda) when the range is positive and in lambda when
    it starts at 0.  The ends and the iterates are hint states, solved
    where refused, and one ``chi_at`` solve at the root checks it, as one
    at the upper end (the end farther from zero) checks a miss.  Raises
    ``NO_SIGN_CHANGE`` when the ends share a sign, e.g. without the
    coupling field there is no feature to invert.
    """
    lo, hi = lambda_range
    if not hi > lo or lo < 0:
        raise ConfigError(
            "pump range must satisfy 0 <= lo < hi", code="RANGE_ERROR"
        )
    p = replace(p, delta_p=0.0)
    star = _im_chi_crossing(
        p, m, "lambda_pump", lo, hi, THRESHOLD_REL_TOL,
        "resonant absorption does not change sign over the pump range", in_log=lo > 0,
    )
    chi_at(replace(p, lambda_pump=star), m)  # a reported root passes steady_state
    return star


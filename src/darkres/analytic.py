"""Closed-form weak-probe solutions and dressed-state analysis.

These expressions are leading-order expansions of the steady state in the
probe Rabi frequency and serve as independent oracles for the numeric
solver: the full weak-probe form everywhere, a narrow-feature limit form
around zero probe detuning, and an incoherent-pump form describing the
gain spike.  Each rejects invalid input (``check_params``) before
anything else, but none enforces its validity conditions, so they can
also be plotted outside their regimes for comparison purposes.  Each form
is rational in the probe detuning and returns the coherence together with
its exact detuning derivative; they are reached through the
``Method.ANALYTIC_*`` routes of :mod:`darkres.observables`, like the
numeric solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .model import SystemParams, check_params, coherence_damping

_DENOMINATOR_FLOOR = 1e-30


@dataclass(frozen=True)
class DressedStates:
    """Eigenstates of the driven |1>,|2>,|4> subsystem at zero detunings.

    ``amplitudes[k]`` holds the components of the k-th dressed state on the
    bare states (|1>, |2>, |4>); ``energies[k]`` the matching eigenvalue in
    units of hbar*gamma.  Order: uncoupled state, upper, lower.
    """

    energies: tuple[float, float, float]
    amplitudes: tuple[tuple[float, float, float], ...]


def _quotient(
    num: complex, dnum: complex, den: complex, dden: complex, what: str
) -> tuple[complex, complex]:
    """num/den and its derivative by the quotient rule, refusing a
    denominator below the floor."""
    if abs(den) < _DENOMINATOR_FLOOR:
        raise NumericError(f"{what} denominator vanished", code="DIVISION_DEGENERATE")
    value = num / den
    return value, (dnum - value * dden) / den


def _weak_probe(p: SystemParams) -> tuple[complex, complex]:
    """Probe-transition coherence to first order in the probe coupling,
    valid without incoherent pumping, and its probe-detuning derivative:
    every factor c_ij is delta_p plus a constant.

    The numerator interference between the two-photon pathway (via the
    coupling field) and the direct pathway is what carves the narrow
    feature into the Autler-Townes profile.
    """
    check_params(p)
    c13 = p.delta_p - p.delta41 + p.delta42 + 1j * coherence_damping(p, 1, 3)
    c34 = p.delta_p + p.delta42 + 1j * coherence_damping(p, 3, 4)
    c23 = p.delta_p + 1j * coherence_damping(p, 2, 3)
    return _quotient(
        -p.g_p * (p.g41**2 - c13 * c34),
        p.g_p * (c13 + c34),
        p.g41**2 * c23 + c13 * (p.g42**2 - c23 * c34),
        p.g41**2 + p.g42**2 - c23 * c34 - c13 * (c23 + c34),
        "weak-probe response",
    )


def _limit(p: SystemParams) -> tuple[complex, complex]:
    """Narrow-feature limit of the weak-probe coherence, and its
    probe-detuning derivative: resonant fields, no 1->3 decay,
    g41 << g42 and small probe detuning.

    Its imaginary part is strictly positive (a pure absorption spike);
    the spike half width is (g41/g42)^2 * gamma23.
    """
    check_params(p)
    g23 = coherence_damping(p, 2, 3)
    g34 = coherence_damping(p, 3, 4)
    return _quotient(
        -p.g_p * (p.g41**2 - 1j * p.delta_p * g34),
        1j * p.g_p * g34,
        p.g42**2 * p.delta_p + 1j * (p.g41**2 * g23 - p.delta_p**2 * (g34 + g23)),
        p.g42**2 - 2j * p.delta_p * (g34 + g23),
        "limit-form",
    )


def _incoherent(p: SystemParams) -> tuple[complex, complex]:
    """Leading-order probe coherence with incoherent pumping applied, and
    its probe-detuning derivative.

    The imaginary part is a gain Lorentzian of half width equal to the
    pump rate; the real part is the matching dispersive profile, odd in
    the probe detuning.  The form is pref / (delta_p + i*lambda), so the
    derivative is -rho / (delta_p + i*lambda).
    """
    check_params(p)
    lorentz_den = p.delta_p**2 + p.lambda_pump**2
    if lorentz_den < _DENOMINATOR_FLOOR:
        raise NumericError(
            "pump form undefined at zero detuning and zero pump",
            code="DIVISION_DEGENERATE",
        )
    den = p.g42**2 * p.gamma23 + 2 * p.lambda_pump * coherence_damping(p, 2, 4) * p.gamma42
    if abs(den) < _DENOMINATOR_FLOOR:
        raise NumericError(
            "pump-form prefactor denominator vanished", code="DIVISION_DEGENERATE"
        )
    prefactor = p.g41**2 * p.g_p * p.gamma23 / den
    rho = prefactor * (p.delta_p - 1j * p.lambda_pump) / lorentz_den
    return rho, -rho / (p.delta_p + 1j * p.lambda_pump)


def spike_half_width(p: SystemParams) -> float:
    """Half width of the narrow absorption feature, (g41/g42)^2 * gamma23.
    Raises ``DIVISION_DEGENERATE`` when g42 is zero."""
    check_params(p)
    if p.g42 == 0.0:
        raise NumericError("spike width undefined at zero g42", code="DIVISION_DEGENERATE")
    return (p.g41 / p.g42) ** 2 * p.gamma23


def coupling_hamiltonian(g41: float, g42: float) -> np.ndarray:
    """Interaction Hamiltonian of the driven subsystem in the (|1>, |2>,
    |4>) basis at zero detunings, in units of hbar*gamma.

    Sign convention -g |4><j| + h.c., under which the dressed states
    below are its exact eigensystem.
    """
    return np.array(
        [
            [0.0, 0.0, -g41],
            [0.0, 0.0, -g42],
            [-g41, -g42, 0.0],
        ]
    )


def dressed_states(g41: float, g42: float) -> DressedStates:
    """Dressed states of the doubly driven |1>,|2>,|4> subsystem.

    The zero-energy state is the dark superposition of |1> and |2>; for
    g41 -> 0 it reduces to the bare state |1>, decoupled from the fields,
    and the remaining pair is the ordinary Autler-Townes doublet split by
    2*g42.  A small g41 admixes |2> into the dark state, which is what
    couples it weakly to the probe and produces the narrow resonance.
    """
    check_params(SystemParams(g41=g41, g42=g42))
    norm_sq = g41**2 + g42**2
    if norm_sq == 0.0:
        raise NumericError(
            "dressed states undefined for vanishing couplings", code="DEGENERATE"
        )
    n = math.sqrt(norm_sq)
    dark = (-g42 / n, g41 / n, 0.0)
    upper = (g41 / math.sqrt(2 * norm_sq), g42 / math.sqrt(2 * norm_sq), -1 / math.sqrt(2))
    lower = (g41 / math.sqrt(2 * norm_sq), g42 / math.sqrt(2 * norm_sq), +1 / math.sqrt(2))
    return DressedStates(energies=(0.0, n, -n), amplitudes=(dark, upper, lower))

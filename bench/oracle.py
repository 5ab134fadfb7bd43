"""Independent steady-state oracle for the benchmark's correctness checks.

The master equation is built from the Hamiltonian and the collapse
operators in superoperator form, using row-major vectorisation
vec(A rho B) = (A kron B^T) vec(rho).  Nothing is taken from darkres
except the parameter values, so an error in the production equations of
motion cannot hide here.

The probe detuning enters the Hamiltonian only through the |3><3|
projector, so the superoperator is affine in it: L(dp) = L0 + dp * L1.
The exact detuning derivative of the steady state then solves the same
matrix once more: L x' = -L1 x with tr x' = 0.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

_EYE = np.eye(4)
# vec(rho) index of rho_44; its equation is the trace row in the square system.
_TRACE_ROW = 15


def _proj(i: int, j: int) -> np.ndarray:
    """|i><j| for one-based state labels."""
    op = np.zeros((4, 4), dtype=complex)
    op[i - 1, j - 1] = 1.0
    return op


def _commutator(h: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> -i [h, rho]."""
    return -1j * (np.kron(h, _EYE) - np.kron(_EYE, h.T))


def liouvillian(p) -> tuple[np.ndarray, np.ndarray]:
    """(L, L1): the 16x16 superoperator at ``p`` and its derivative in the
    probe detuning."""
    h = (
        p.delta41 * _proj(1, 1)
        + p.delta42 * _proj(2, 2)
        + (p.delta42 + p.delta_p) * _proj(3, 3)
        - p.g41 * (_proj(1, 4) + _proj(4, 1))
        - p.g42 * (_proj(2, 4) + _proj(4, 2))
        - p.g_p * (_proj(2, 3) + _proj(3, 2))
    )
    jumps = [
        (p.gamma41, _proj(1, 4)),
        (p.gamma42, _proj(2, 4)),
        (p.gamma23, _proj(3, 2)),
        (p.gamma13, _proj(3, 1)),
        (p.lambda_pump, _proj(2, 3)),
        (p.lambda_pump, _proj(3, 2)),
    ]
    lsup = _commutator(h)
    for rate, c in jumps:
        c = math.sqrt(2.0 * rate) * c
        cdc = c.conj().T @ c
        lsup += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, _EYE) + np.kron(_EYE, cdc.T))
    return lsup, _commutator(_proj(3, 3))


def steady_state_and_derivative(p) -> tuple[np.ndarray, np.ndarray]:
    """Steady-state rho (4x4) and d rho / d delta_p, from two solves of
    one matrix: L with its rho_44 row replaced by the trace condition."""
    lsup, l1 = liouvillian(p)
    a = lsup.copy()
    a[_TRACE_ROW] = _EYE.reshape(16)
    b = np.zeros(16, dtype=complex)
    b[_TRACE_ROW] = 1.0
    x = np.linalg.solve(a, b)
    r = -(l1 @ x)
    r[_TRACE_ROW] = 0.0
    dx = np.linalg.solve(a, r)
    return x.reshape(4, 4), dx.reshape(4, 4)


def chi_scale(m, g_p: float) -> float:
    """Susceptibility per unit probe coherence:
    3 N lambda^3 / (4 pi^2) * (gamma23/gamma) / g_p."""
    return (
        3.0 * m.number_density * m.probe_wavelength**3 / (4.0 * math.pi**2)
        * m.gamma23_over_gamma / g_p
    )


def chi_and_slope(p, m) -> tuple[complex, complex]:
    """Susceptibility at ``p.delta_p`` and its exact detuning derivative."""
    rho, drho = steady_state_and_derivative(p)
    scale = chi_scale(m, p.g_p)
    return scale * complex(rho[1, 2]), scale * complex(drho[1, 2])


def chi(p, m) -> complex:
    return chi_and_slope(p, m)[0]


def group_index(c: complex, dc: complex, m) -> float:
    """n_g = 1 + 2 pi chi' + 2 pi omega_p (d chi'/d delta) / gamma_SI, from
    chi and its detuning derivative."""
    omega_p = 2.0 * math.pi * SPEED_OF_LIGHT / m.probe_wavelength
    return 1.0 + 2.0 * math.pi * c.real + 2.0 * math.pi * omega_p * dc.real / m.gamma_si

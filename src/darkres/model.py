"""Physical parameters of the driven four-level system.

Level scheme: a ladder |3> -- |2> -- |4> with a perturbing side state |1>.
A strong field (Rabi frequency ``g42``) drives |2><->|4>, a weak coupling
field (``g41``) drives |1><->|4>, and the probe (``g_p``) acts on |2><->|3>.
An incoherent pump of strength ``lambda_pump`` additionally couples the
probe transition.  Spontaneous decay channels are 4->1 (``gamma41``),
4->2 (``gamma42``), 2->3 (``gamma23``) and 1->3 (``gamma13``).

All rates, Rabi frequencies and detunings are dimensionless, expressed in
units of a reference rate gamma (the 4->1 decay in the mercury-like
configuration).  SI enters only through :class:`MediumParams` when
converting to susceptibility and group index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ParameterError

# Probe counts as weak when g_p <= WEAK_PROBE_FACTOR * gamma23; keeps the
# relative error of the first-order response below ~1e-4.
WEAK_PROBE_FACTOR = 1e-2


@dataclass(frozen=True)
class SystemParams:
    """Field and decay parameters, all in units of the reference rate."""

    g41: float = 0.0
    g42: float = 0.0
    g_p: float = 0.0
    delta41: float = 0.0
    delta42: float = 0.0
    delta_p: float = 0.0
    gamma41: float = 0.0
    gamma42: float = 0.0
    gamma23: float = 0.0
    gamma13: float = 0.0
    lambda_pump: float = 0.0


PARAM_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(SystemParams))


@dataclass(frozen=True)
class MediumParams:
    """Medium properties needed to convert coherence into susceptibility.

    ``gamma_si`` (the reference rate in rad/s) is only required for the
    group-index output; it has no default because the literature does not
    pin an absolute linewidth for the mercury scheme.
    """

    number_density: float = 1e18  # atoms per m^3
    probe_wavelength: float = 253.7e-9  # m
    gamma23_over_gamma: float = 0.14
    gamma_si: float = 0.0  # rad/s; 0 means "not supplied"

    def check(self) -> None:
        """Reject non-finite or out-of-range medium properties; the
        comparisons are written so that NaN fails them."""
        if not 0 < self.number_density < math.inf:
            raise ParameterError(
                "number density must be finite and > 0", code="NEGATIVE_RATE"
            )
        if not 0 < self.probe_wavelength < math.inf:
            raise ParameterError(
                "probe wavelength must be finite and > 0", code="NEGATIVE_RATE"
            )
        if not 0 < self.gamma23_over_gamma <= 1:
            raise ParameterError(
                "gamma23/gamma must lie in (0, 1]", code="NEGATIVE_RATE"
            )
        if not 0 <= self.gamma_si < math.inf:
            raise ParameterError(
                "gamma_SI must be finite and >= 0", code="NEGATIVE_RATE"
            )


def check_params(p: SystemParams) -> None:
    """Reject structurally invalid parameters with a named violation.

    Every field must be finite, and the Rabi frequencies and rates >= 0;
    the comparisons are written so that NaN fails them.
    """
    for name in PARAM_FIELDS:
        if not math.isfinite(getattr(p, name)):
            code = "NONFINITE_DETUNING" if name.startswith("delta") else "NONFINITE_PARAMETER"
            raise ParameterError(f"{name} must be finite", code=code)
    for name in ("g41", "g42", "g_p"):
        if not getattr(p, name) >= 0:
            raise ParameterError(f"{name} must be >= 0", code="NEGATIVE_RABI")
    for name in ("gamma41", "gamma42", "gamma23", "gamma13", "lambda_pump"):
        if not getattr(p, name) >= 0:
            raise ParameterError(f"{name} must be >= 0", code="NEGATIVE_RATE")


def coherence_damping(p: SystemParams, i: int, j: int) -> float:
    """Damping rate of the (i, j) coherence, one-based state labels: the
    symmetric sum Gamma_i + Gamma_j of the states' total decay rates.

    State |3> is the ground state and does not decay; |4> decays through
    both of its channels.  The incoherent pump is deliberately NOT folded
    in here: it enters the equations of motion explicitly, and including
    it twice would double-count.
    """
    total = (p.gamma13, p.gamma23, 0.0, p.gamma41 + p.gamma42)
    return total[i - 1] + total[j - 1]

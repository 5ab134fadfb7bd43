"""Exact steady state of the four-level density matrix.

The equations of motion for the populations and the six independent
coherences, together with the Hermitian-conjugate equations and the trace
constraint, form a dense 16x16 complex linear system in all density-matrix
entries.  Solving it directly gives the steady state to all orders in the
probe field; the closed forms in :mod:`darkres.analytic` serve as
independent cross-checks.

Keeping all 16 entries (rather than a 15-real parametrization) means the
equations are transcribed one-to-one; Hermiticity of the solution is then
a non-trivial consistency check performed after the solve.  The matrix
is affine in every parameter, so the exact parameter derivative of the
steady state costs one more solve with the same matrix: the steady state
keeps the factorization of its matrix, and the derivative reuses it, so
that solve is substitutions only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import NumericError
from .model import (
    PARAM_FIELDS,
    DampingTable,
    SystemParams,
    check_params,
    damping_table,
)

# Pivot smaller than this fraction of its column's initial magnitude is
# treated as a true singularity rather than conditioning noise.
PIVOT_RTOL = 1e-14

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POPULATION_TOL = 1e-8

# Row-major ordering of the 16 unknowns rho_ij.
UNKNOWNS: list[tuple[int, int]] = [(i, j) for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)]

_COHERENCES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def _index(i: int, j: int) -> int:
    return 4 * (i - 1) + (j - 1)


@dataclass(frozen=True)
class _Factors:
    """Gaussian elimination with partial pivoting of ``matrix``, kept for
    reuse: at step k row ``pivots[k]`` was swapped into place and the rows
    below it took away ``multipliers[k]`` times it; ``upper`` is the
    eliminated matrix, whose upper triangle the back substitution uses."""

    matrix: np.ndarray
    upper: np.ndarray
    pivots: tuple[int, ...]
    multipliers: tuple[np.ndarray, ...]

    def _substitute(self, rhs: np.ndarray) -> np.ndarray:
        """Replay the elimination on ``rhs``, then back-substitute: the
        same arithmetic on arrays of the same layout as eliminating afresh,
        so the result is bit-identical to it."""
        u = self.upper
        b = rhs.copy()
        for k, (piv, factors) in enumerate(zip(self.pivots, self.multipliers)):
            if piv != k:
                b[k], b[piv] = b[piv], b[k]
            b[k + 1 :] -= factors * b[k]
        x = np.zeros(len(b), dtype=complex)
        for k in range(len(b) - 1, -1, -1):
            x[k] = (b[k] - u[k, k + 1 :] @ x[k + 1 :]) / u[k, k]
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solution of ``matrix @ x = rhs`` with one step of iterative
        refinement."""
        x = self._substitute(rhs)
        x += self._substitute(rhs - self.matrix @ x)
        return x

    def _substitute_columns(self, rhs: np.ndarray) -> np.ndarray:
        """:meth:`_substitute` applied to every column of ``rhs`` at once."""
        u = self.upper
        b = rhs.copy()
        for k, (piv, factors) in enumerate(zip(self.pivots, self.multipliers)):
            if piv != k:
                b[[k, piv]] = b[[piv, k]]
            b[k + 1 :] -= factors[:, None] * b[k]
        x = np.zeros_like(b)
        for k in range(len(b) - 1, -1, -1):
            x[k] = (b[k] - u[k, k + 1 :] @ x[k + 1 :]) / u[k, k]
        return x

    def inverse(self) -> np.ndarray:
        """``matrix``'s inverse from the kept factors, with the same one
        step of iterative refinement as :meth:`solve`."""
        eye = np.eye(len(self.pivots), dtype=complex)
        x = self._substitute_columns(eye)
        x += self._substitute_columns(eye - self.matrix @ x)
        return x


def _factor(matrix: np.ndarray) -> _Factors:
    """Eliminate ``matrix`` with partial pivoting.

    Raises ``SINGULAR`` when a pivot falls below ``PIVOT_RTOL`` times the
    largest initial magnitude in its column; this signals a dark-state
    trapped or undriven configuration rather than round-off.
    """
    a = matrix.copy()
    col_scale = np.max(np.abs(matrix), axis=0)
    pivots, multipliers = [], []
    for k in range(a.shape[0]):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[piv, k]) <= PIVOT_RTOL * col_scale[k]:
            raise NumericError(
                f"pivot {abs(a[piv, k]):.3e} below threshold in column {k}",
                code="SINGULAR",
            )
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= factors[:, None] * a[k, k:]
        pivots.append(piv)
        multipliers.append(factors)
    return _Factors(
        matrix=matrix, upper=a, pivots=tuple(pivots), multipliers=tuple(multipliers)
    )


@dataclass(frozen=True)
class DensityMatrix:
    """4x4 complex steady-state density matrix (one-based state labels).

    A steady state from :func:`steady_state` also carries the
    factorization of its system matrix, which
    :func:`steady_state_derivative` reuses; it takes no part in
    comparison or repr.
    """

    rho: np.ndarray
    _factors: _Factors | None = field(default=None, repr=False, compare=False)

    def element(self, i: int, j: int) -> complex:
        return complex(self.rho[i - 1, j - 1])

    def population(self, i: int) -> float:
        return float(self.rho[i - 1, i - 1].real)

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.rho))

    def validate(self) -> None:
        """Check Hermiticity, unit trace and population bounds; the
        comparisons are written so that NaN fails them."""
        defect = np.max(np.abs(self.rho - self.rho.conj().T))
        if not defect <= HERMITICITY_TOL:
            raise NumericError(
                f"solution not Hermitian (defect {defect:.3e})", code="BAD_SOLUTION"
            )
        if not abs(self.trace - 1.0) <= TRACE_TOL:
            raise NumericError(
                f"trace deviates from 1 by {abs(self.trace - 1.0):.3e}",
                code="BAD_SOLUTION",
            )
        pops = np.diag(self.rho)
        if not np.max(np.abs(pops.imag)) <= HERMITICITY_TOL:
            raise NumericError("complex population", code="BAD_SOLUTION")
        if not np.all(
            (pops.real >= -POPULATION_TOL) & (pops.real <= 1.0 + POPULATION_TOL)
        ):
            raise NumericError("population outside [0, 1]", code="BAD_SOLUTION")


@dataclass(frozen=True)
class LinearProblem:
    """Dense complex system A x = b over the 16 density-matrix unknowns.

    Fifteen rows are steady-state equations; the row for rho_44 is the
    trace constraint (the only inhomogeneous one).  The matrix is
    factorized on the first solve and must not be modified afterwards.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    unknowns: list[tuple[int, int]]

    @cached_property
    def _factors(self) -> _Factors:
        return _factor(np.asarray(self.matrix, dtype=complex))


def equations_of_motion(
    p: SystemParams, d: DampingTable
) -> dict[tuple[int, int], dict[tuple[int, int], complex]]:
    """Coefficients of d(rho_ij)/dt for the populations of |1>..|3> and the
    six independent coherences, as {equation: {unknown: coefficient}}.

    The Rabi frequencies are real by model invariant, so conjugated
    couplings coincide with the couplings themselves.  The incoherent pump
    enters the population exchange 2<->3 at rate 2*lambda and damps the
    coherences involving those states (twice as fast for the 2-3 coherence,
    which connects two pumped states).
    """
    g41, g42, gp = p.g41, p.g42, p.g_p
    d41, d42, dp = p.delta41, p.delta42, p.delta_p
    lam = p.lambda_pump
    G = d.big_gamma

    return {
        (1, 1): {
            (1, 1): -2 * p.gamma13,
            (4, 4): 2 * p.gamma41,
            (1, 4): -1j * g41,
            (4, 1): 1j * g41,
        },
        (2, 2): {
            (2, 2): -2 * p.gamma23 - 2 * lam,
            (4, 4): 2 * p.gamma42,
            (3, 3): 2 * lam,
            (3, 2): 1j * gp,
            (2, 3): -1j * gp,
            (2, 4): -1j * g42,
            (4, 2): 1j * g42,
        },
        (3, 3): {
            (1, 1): 2 * p.gamma13,
            (2, 2): 2 * p.gamma23 + 2 * lam,
            (3, 3): -2 * lam,
            (3, 2): -1j * gp,
            (2, 3): 1j * gp,
        },
        (1, 2): {
            (1, 2): -(G(1, 2) + 1j * d41 - 1j * d42 + lam),
            (1, 4): -1j * g42,
            (1, 3): -1j * gp,
            (4, 2): 1j * g41,
        },
        (1, 3): {
            (1, 3): -(G(1, 3) + 1j * d41 - 1j * d42 - 1j * dp + lam),
            (1, 2): -1j * gp,
            (4, 3): 1j * g41,
        },
        (1, 4): {
            (1, 4): -(G(1, 4) + 1j * d41),
            (1, 1): -1j * g41,
            (4, 4): 1j * g41,
            (1, 2): -1j * g42,
        },
        (2, 3): {
            (2, 3): -(G(2, 3) - 1j * dp + 2 * lam),
            (2, 2): -1j * gp,
            (3, 3): 1j * gp,
            (4, 3): 1j * g42,
        },
        (2, 4): {
            (2, 4): -(G(2, 4) + 1j * d42 + lam),
            (2, 2): -1j * g42,
            (4, 4): 1j * g42,
            (3, 4): 1j * gp,
            (2, 1): -1j * g41,
        },
        (3, 4): {
            (3, 4): -(G(3, 4) + 1j * dp + 1j * d42 + lam),
            (2, 4): 1j * gp,
            (3, 1): -1j * g41,
            (3, 2): -1j * g42,
        },
    }


def assemble(p: SystemParams, d: DampingTable) -> LinearProblem:
    """Build the 16x16 steady-state system.

    Rows: the three population equations, the six coherence equations and
    their Hermitian conjugates (conjugated coefficients on transposed
    unknowns), and the trace row in place of the rho_44 equation.
    """
    eqs = equations_of_motion(p, d)
    a = np.zeros((16, 16), dtype=complex)
    b = np.zeros(16, dtype=complex)

    for (i, j), coeffs in eqs.items():
        row = _index(i, j)
        for (k, l), c in coeffs.items():
            a[row, _index(k, l)] += c

    for (i, j) in _COHERENCES:
        row = _index(j, i)
        for (k, l), c in eqs[(i, j)].items():
            a[row, _index(l, k)] += np.conj(c)

    trace_row = _index(4, 4)
    for i in (1, 2, 3, 4):
        a[trace_row, _index(i, i)] = 1.0
    b[trace_row] = 1.0

    return LinearProblem(matrix=a, rhs=b, unknowns=list(UNKNOWNS))


def solve_linear(lp: LinearProblem) -> np.ndarray:
    """Solve the dense complex system by Gaussian elimination with partial
    pivoting, followed by one step of iterative refinement that reuses the
    elimination.

    Raises ``SINGULAR`` when a pivot falls below ``PIVOT_RTOL`` times the
    largest initial magnitude in its column; this signals a dark-state
    trapped or undriven configuration rather than round-off.
    """
    a0 = np.asarray(lp.matrix, dtype=complex)
    b0 = np.asarray(lp.rhs, dtype=complex)
    n = a0.shape[0]
    if a0.shape != (n, n) or b0.shape != (n,):
        raise ValueError("system must be square with matching right-hand side")
    return lp._factors.solve(b0)


def steady_state(p: SystemParams) -> DensityMatrix:
    """Solve for the steady-state density matrix of the driven system.

    Raises ``TRAPPED`` when nothing couples state |3>'s shelving cycle back
    out (no 1->3 decay, no coupling field, no pump): the long-time state
    then depends on the initial conditions and a steady-state solve is
    meaningless.  Propagates ``SINGULAR`` from degenerate configurations.
    """
    check_params(p)
    if p.gamma13 == 0.0 and p.g41 == 0.0 and p.lambda_pump == 0.0:
        raise NumericError(
            "population trapping: gamma13, g41 and the pump are all zero",
            code="TRAPPED",
        )
    lp = assemble(p, damping_table(p))
    x = solve_linear(lp)
    dm = DensityMatrix(rho=x.reshape(4, 4), _factors=lp._factors)
    dm.validate()
    return dm


@lru_cache(maxsize=None)
def _parameter_basis(wrt: str) -> np.ndarray:
    """dA/dtheta for the field ``wrt``: the system matrix is affine in
    every field, so the unit-field assembly minus the all-zero one is exact
    (entries 0, +-1, +-2, +-i)."""
    zero = SystemParams()
    unit = replace(zero, **{wrt: 1.0})
    basis = assemble(unit, damping_table(unit)).matrix - assemble(
        zero, damping_table(zero)
    ).matrix
    basis.setflags(write=False)
    return basis


def steady_state_derivative(
    p: SystemParams, dm: DensityMatrix, wrt: str
) -> np.ndarray:
    """Exact derivative d(rho)/d(theta) of the steady state ``dm`` of ``p``
    with respect to the ``SystemParams`` field ``wrt``, as a 4x4 array.

    A(theta) x = b with A affine in theta and b fixed, so A dx = -B x with
    B = dA/dtheta: one more solve with the same matrix.  When ``dm`` comes
    from :func:`steady_state`, its factorization of A is reused
    (substitutions only, no assembly); for a bare ``DensityMatrix`` A is
    assembled and factorized afresh, with bit-identical results.  Raises
    ``BAD_SOLUTION`` when d(rho) is not Hermitian or not traceless to
    ``HERMITICITY_TOL`` / ``TRACE_TOL`` relative to its largest entry.
    """
    if wrt not in PARAM_FIELDS:
        raise ValueError(f"unknown parameter {wrt!r}")
    factors = dm._factors
    if factors is None:
        factors = assemble(p, damping_table(p))._factors
    rhs = -(_parameter_basis(wrt) @ dm.rho.reshape(16))
    drho = factors.solve(rhs).reshape(4, 4)
    scale = np.max(np.abs(drho))
    defect = np.max(np.abs(drho - drho.conj().T))
    if not defect <= HERMITICITY_TOL * scale:
        raise NumericError(
            f"derivative not Hermitian (defect {defect:.3e} of {scale:.3e})",
            code="BAD_SOLUTION",
        )
    drift = abs(np.trace(drho))
    if not drift <= TRACE_TOL * scale:
        raise NumericError(
            f"derivative trace {drift:.3e} not zero (scale {scale:.3e})",
            code="BAD_SOLUTION",
        )
    return drho


def residual(p: SystemParams, dm: DensityMatrix) -> float:
    """Max norm of the time derivatives (and closure violation) at ``dm``.

    Zero for a true steady state; used as an a-posteriori solve check.
    """
    eqs = equations_of_motion(p, damping_table(p))
    rho = dm.rho
    worst = 0.0
    for coeffs in eqs.values():
        acc = 0.0 + 0.0j
        for (k, l), c in coeffs.items():
            acc += c * rho[k - 1, l - 1]
        worst = max(worst, abs(acc))
    closure = abs(rho[3, 3] - (1.0 - rho[0, 0] - rho[1, 1] - rho[2, 2]))
    return max(worst, float(closure))

"""Exact steady state of the four-level density matrix.

The equations of motion for the populations and the six independent
coherences, together with the Hermitian-conjugate equations and the trace
constraint, form a dense 16x16 complex linear system in all density-matrix
entries, solved directly to all orders in the probe field; the closed
forms in :mod:`darkres.analytic` serve as independent cross-checks.
Keeping all 16 entries transcribes the equations one-to-one and makes
Hermiticity of the solution a non-trivial check after the solve.

The matrix is affine in every parameter, A(p) = T + sum_k theta_k B_k:
the basis tensor (T, B) is built once, on first use, and an exact
parameter derivative costs one more solve with the same matrix, which
every solved state carries.  A steady state is one Gaussian elimination
with partial pivoting and no refinement step, which in double precision
gains nothing: backward errors stay below 1e-16 on random draws, and
states away from the trap lie within 1e-15 of the exact rational
solution.  Every solve passes one gate, :func:`_gate`.

The root finders search on hint states (:func:`_hint_state`): the same
body (:func:`_state`) with LAPACK's LU in place of the elimination, which
stays for every reported state, since only its pivot threshold reports
``SINGULAR`` where rho11 is conserved: there LAPACK returns a state that
passes the gate on some draws.  A sweep's states come from a low-rank
update of the hint state at its base point (:class:`_Resolvent`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from .errors import NumericError
from .model import PARAM_FIELDS, SystemParams, check_params, coherence_damping

# Pivot smaller than this fraction of its column's initial magnitude is
# treated as a true singularity rather than conditioning noise.
PIVOT_RTOL = 1e-14

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POPULATION_TOL = 1e-8
# Bound on the normwise backward error ||A x - b|| / (||A|| ||x|| + ||b||)
# (infinity norms) of every accepted solve.  Steady-state solves reach
# ~5e-17 and derivative solves ~2e-16 over thousands of random and pumped
# configurations, so the bound leaves two orders of magnitude of margin.
BACKWARD_TOL = 1e-14
# Gate of the resolvent (_Resolvent) beyond the per-state ones: its agreement
# with a direct solve, relative to |chi|.
RESOLVENT_AGREEMENT_RTOL = 1e-12

_COHERENCES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def _index(i: int, j: int) -> int:
    """Position of rho_ij among the 16 unknowns, in row-major order."""
    return 4 * (i - 1) + (j - 1)


# Right-hand side of every steady-state system: the trace row is the only
# inhomogeneous one.
RHS = np.zeros(16, dtype=complex)
RHS[_index(4, 4)] = 1.0
RHS.setflags(write=False)


@dataclass(frozen=True)
class DensityMatrix:
    """4x4 complex steady-state density matrix (one-based state labels),
    with the 16x16 matrix whose solution it is (right-hand side
    :data:`RHS`) when a solve gave it, read-only from :func:`steady_state`."""

    rho: np.ndarray
    system_matrix: np.ndarray | None = field(default=None, compare=False, repr=False)

    def element(self, i: int, j: int) -> complex:
        return complex(self.rho[i - 1, j - 1])

    def population(self, i: int) -> float:
        return float(self.rho[i - 1, i - 1].real)

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.rho))

    def validate(self) -> None:
        """Check Hermiticity (which covers real populations), unit trace and
        population bounds, after the backward error of the solve when the
        state carries its ``system_matrix``; NaN fails every check.  Raises
        ``BAD_SOLUTION`` naming the first failed check and its defect."""
        x, a = self.rho.reshape(1, 16), self.system_matrix
        r, norm = (None, 0.0) if a is None else (x @ a.T - RHS, _norm(a))
        _gate(x, r, norm, 1.0, strict=True)


def _norm(a: np.ndarray) -> float:
    """Infinity norm of the matrix ``a``."""
    return np.abs(a).sum(axis=1).max()


def _gate(
    x: np.ndarray, r: np.ndarray | None = None, norm_a=0.0, norm_b=0.0,
    derivative: bool = False, strict: bool = False,
) -> np.ndarray:
    """The gate of every solve: the mask of the rows of ``x`` (the 16
    entries of a state, or of a derivative when ``derivative``) that pass
    every check, which NaN fails.  With residual rows ``r``, the normwise
    backward error ||r|| / (||A|| ||x|| + ||b||), given the infinity norms
    ``norm_a`` (shared or per row) and ``norm_b``, is at most
    ``BACKWARD_TOL``.  A state is Hermitian, of unit trace and with
    populations in [0, 1]; a derivative Hermitian and traceless relative
    to its largest entry.  With ``strict``, raises ``BAD_SOLUTION`` naming
    the first check that the first row fails."""
    rho, diag, size = x.reshape(-1, 4, 4), x[:, ::5], np.abs(x).max(axis=1)
    skew = np.abs(rho - rho.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    trace = diag.sum(axis=1)
    what = "derivative" if derivative else "steady state"
    # (message of d, s and q = d / s, defect d, scale s, tol): pass if d <= tol * s
    checks = [] if r is None else [(
        f"{what} backward error {{q:.3e}} above {BACKWARD_TOL:.0e}",
        np.abs(r).max(axis=1), norm_a * size + norm_b, BACKWARD_TOL,
    )]
    if derivative:
        checks += [
            ("derivative not Hermitian (defect {d:.3e} of {s:.3e})", skew, size, HERMITICITY_TOL),
            ("derivative trace {d:.3e} not zero (scale {s:.3e})", np.abs(trace), size, TRACE_TOL),
        ]
    else:
        outside = np.maximum(-diag.real, diag.real - 1.0).max(axis=1)
        checks += [
            ("solution not Hermitian (defect {d:.3e})", skew, 1.0, HERMITICITY_TOL),
            ("trace deviates from 1 (defect {d:.3e})", np.abs(trace - 1.0), 1.0, TRACE_TOL),
            ("population outside [0, 1] (defect {d:.3e})", outside, 1.0, POPULATION_TOL),
        ]
    ok = True
    for message, defect, scale, tol in checks:
        passed = defect <= tol * scale
        if strict and not passed[0]:
            d, s = defect[0], np.ravel(scale)[0]
            raise NumericError(message.format(d=d, s=s, q=d / s), code="BAD_SOLUTION")
        ok = ok & passed
    return ok


def equations_of_motion(
    p: SystemParams,
) -> dict[tuple[int, int], dict[tuple[int, int], complex]]:
    """Coefficients of d(rho_ij)/dt for the populations of |1>..|3> and the
    six independent coherences, as {equation: {unknown: coefficient}}.

    The Rabi frequencies are real by model invariant, so conjugated
    couplings coincide with the couplings themselves.  The incoherent pump
    enters the population exchange 2<->3 at rate 2*lambda and damps the
    coherences involving those states (twice as fast for the 2-3 coherence,
    which connects two pumped states).
    """
    check_params(p)
    g41, g42, gp = p.g41, p.g42, p.g_p
    d41, d42, dp = p.delta41, p.delta42, p.delta_p
    lam = p.lambda_pump
    G = partial(coherence_damping, p)

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


def _transcribe(p: SystemParams) -> np.ndarray:
    """The 16x16 steady-state matrix as a walk over the equations of
    motion, from which :func:`_basis` is built.

    Rows: the three population equations, the six coherence equations and
    their Hermitian conjugates (conjugated coefficients on transposed
    unknowns), and the trace row in place of the rho_44 equation.
    """
    eqs = equations_of_motion(p)
    a = np.zeros((16, 16), dtype=complex)

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
    return a


@lru_cache(maxsize=None)
def _basis() -> tuple[np.ndarray, np.ndarray]:
    """T (16x16) and B (11x16x16, in ``PARAM_FIELDS`` order) of A(p) =
    T + sum_k theta_k B_k.  The transcription is affine in every field, so
    it gives T at the all-zero parameters and T + B_k at the unit field k,
    exactly (entries 0, +-1, +-2, +-i).  Built on first use, not at import."""
    zero = SystemParams()
    t = _transcribe(zero)
    b = np.array([_transcribe(replace(zero, **{f: 1.0})) - t for f in PARAM_FIELDS])
    t.setflags(write=False)
    b.setflags(write=False)
    return t, b


def assemble(p: SystemParams) -> np.ndarray:
    """The 16x16 steady-state matrix of ``p`` (right-hand side :data:`RHS`)
    as T + sum_k theta_k B_k.  The sum runs over the fields in order; the
    transcription sums the same terms up to commuted pairs, so the two
    agree bit for bit."""
    check_params(p)
    t, b = _basis()
    theta = np.array([getattr(p, name) for name in PARAM_FIELDS])
    return t + np.einsum("k,kij->ij", theta, b)


def solve_linear(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by one Gaussian elimination with partial
    pivoting over [matrix | rhs] and back substitution, with no refinement
    step: one would buy no accuracy here (see the module docstring).

    Raises ``SINGULAR`` when a pivot falls below ``PIVOT_RTOL`` times the
    largest initial magnitude in its column of ``matrix``; this signals a
    dark-state trapped or undriven configuration rather than round-off.
    """
    a, b = np.asarray(matrix, dtype=complex), np.asarray(rhs, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError("system must be square with matching right-hand side")
    u = np.column_stack((a, b))
    col_scale = np.max(np.abs(a), axis=0)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(u[k:, k])))
        if abs(u[piv, k]) <= PIVOT_RTOL * col_scale[k]:
            raise NumericError(
                f"pivot {abs(u[piv, k]):.3e} below threshold in column {k}", code="SINGULAR"
            )
        if piv != k:
            u[[k, piv]] = u[[piv, k]]
        u[k + 1 :, k:] -= (u[k + 1 :, k] / u[k, k])[:, None] * u[k, k:]
    x = np.zeros(n, dtype=complex)
    for k in range(n - 1, -1, -1):
        x[k] = (u[k, n] - u[k, k + 1 : n] @ x[k + 1 :]) / u[k, k]
    return x


def _check_trap(p: SystemParams) -> None:
    """Raise ``TRAPPED`` when nothing couples state |3>'s shelving cycle back
    out (no 1->3 decay, no coupling field, no pump): no steady state then."""
    if p.gamma13 == 0.0 and p.g41 == 0.0 and p.lambda_pump == 0.0:
        msg = "population trapping: gamma13, g41 and the pump are all zero"
        raise NumericError(msg, code="TRAPPED")


def _state(p: SystemParams, solve) -> DensityMatrix:
    """The state of ``p`` by ``solve(matrix, rhs)``, carrying its matrix,
    read-only, after :func:`_check_trap` and before the state's validate."""
    a = assemble(p)  # checks p before the trap test compares its fields
    _check_trap(p)
    a.setflags(write=False)
    dm = DensityMatrix(rho=solve(a, RHS).reshape(4, 4), system_matrix=a)
    dm.validate()
    return dm


def steady_state(p: SystemParams) -> DensityMatrix:
    """Solve for the steady-state density matrix of the driven system.

    The state carries the matrix it solves as its ``system_matrix``.
    Raises ``TRAPPED`` (:func:`_check_trap`), propagates ``SINGULAR`` from
    degenerate configurations, and raises ``BAD_SOLUTION`` when the state
    fails :meth:`DensityMatrix.validate`.
    """
    return _state(p, solve_linear)


def _hint_state(p: SystemParams) -> DensityMatrix:
    """The state of :func:`steady_state` from one LAPACK solve, without
    :func:`solve_linear`'s pivot threshold: a root finder's hint and a
    sweep resolvent's base, never a number reported alone, since it may
    pass the gate where no steady state is unique (rho11 conserved).
    Raises ``TRAPPED``, ``BAD_SOLUTION`` and ``LinAlgError`` (singular)."""
    return _state(p, np.linalg.solve)


def steady_state_derivative(dm: DensityMatrix, wrt: str) -> np.ndarray:
    """Exact derivative d(rho)/d(theta) of the steady state ``dm`` with
    respect to the ``SystemParams`` field ``wrt``, as a 4x4 array.

    A(theta) x = b with A affine in theta and b fixed, so A dx = -B x with
    B = dA/dtheta the field's slice of the basis tensor: one more solve
    with ``dm.system_matrix``, the matrix the steady state solve accepted.
    Raises ``ValueError`` for an unknown field and for a state that carries
    no matrix, ``SINGULAR`` when the matrix is singular, and
    ``BAD_SOLUTION`` when the derivative fails :func:`_gate`."""
    if wrt not in PARAM_FIELDS:
        raise ValueError(f"unknown parameter {wrt!r}")
    a = dm.system_matrix
    if a is None:
        raise ValueError("state carries no system matrix to differentiate")
    rhs = -(_basis()[1][PARAM_FIELDS.index(wrt)] @ dm.rho.reshape(16))
    try:
        dx = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"derivative system singular: {exc}", code="SINGULAR") from exc
    r = (a @ dx - rhs)[None]
    _gate(dx[None], r, _norm(a), np.abs(rhs).max(), derivative=True, strict=True)
    return dx.reshape(4, 4)


class _Resolvent:
    """Steady states along the field ``field`` of ``p``: A(s) = A0 + t B
    with t = s - s0, where B is zero outside its r columns J.  With x0 =
    A0^-1 b the hint state of ``p`` (:func:`_hint_state`), Z = A0^-1 B[:, J]
    and C = Z[J], the Woodbury identity gives x(s) = x0 - t Z (I + t C)^-1
    x0[J] (Hager, SIAM Review 31 (1989); Golub & Van Loan, 2.1.4): one
    r x r solve a row, with no eigenbasis and no refinement step.  Raises
    what :func:`_hint_state` raises."""

    def __init__(self, p: SystemParams, field: str) -> None:
        base = _hint_state(p)
        self.s0, self.a0, self.x0 = getattr(p, field), base.system_matrix, base.rho.reshape(16)
        self.detuning = field.startswith("delta")
        self.b = _basis()[1][PARAM_FIELDS.index(field)]
        self.j = np.flatnonzero(self.b.any(axis=0))
        self.z = np.linalg.solve(self.a0, self.b[:, self.j])
        self.c, self.norm_a0, self.norm_b = self.z[self.j], _norm(self.a0), _norm(self.b)

    def states(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The states at the axis values ``s`` (rows) and the mask of those
        that pass :func:`_gate`, with ||A(s)|| <= ||A0|| + |t| ||B|| in the
        backward error, and that keep A's zero pattern: a rate or coupling
        at exactly 0 is refused, since there it may have no unique state.
        Raises ``LinAlgError`` when LAPACK finds some I + t C singular."""
        t = (s - self.s0)[:, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            m = np.eye(len(self.j)) + t[:, :, None] * self.c
            y = np.linalg.solve(m, self.x0[self.j, None])[:, :, 0]
            x = self.x0 - t * (y @ self.z.T)
            r = RHS - (x @ self.a0.T + t * (x @ self.b.T))
            ok = _gate(x, r, self.norm_a0 + np.abs(t[:, 0]) * self.norm_b, 1.0)
            return x, ok & ((s != 0) | self.detuning)

    @staticmethod
    def agrees(chi: np.ndarray, ok: np.ndarray, far: int, reference: complex) -> bool:
        """The cross-check of the resolvent against a direct solve: row
        ``far`` of its values ``chi`` passed the gate (mask ``ok``) and lies
        within ``RESOLVENT_AGREEMENT_RTOL`` of the direct ``reference``,
        relative to the largest |chi| of the rows the gate accepted."""
        scale = np.max(np.abs(chi[ok]), initial=0.0)
        return bool(ok[far]) and abs(chi[far] - reference) <= RESOLVENT_AGREEMENT_RTOL * scale


"""Exact rational steady-state oracle.

The master equation is built from the Hamiltonian and the jump operators,
in the superoperator form of ``bench/oracle.py`` (row-major
vectorisation, vec(A rho B) = (A kron B^T) vec(rho)), but over the
rationals: every parameter is converted exactly by ``Fraction``, and
each jump term c kron conj(c) with c = sqrt(2 gamma) |i><j| is
2 gamma (|i><j| kron |i><j|), so no square root appears.  The complex
16x16 system, with the trace condition in place of the rho_44 row, is
solved in its 32x32 real form by exact elimination.  The only rounding
is the conversion of each entry to the nearest double at the end.
Nothing is taken from darkres except the parameter values.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# vec(rho) index of rho_44; its equation is the trace row.
_TRACE_ROW = 15
_EYE = [[Fraction(int(k == m)) for m in range(4)] for k in range(4)]


def _proj(i: int, j: int) -> list[list[Fraction]]:
    """|i><j| for one-based state labels."""
    op = [[Fraction(0)] * 4 for _ in range(4)]
    op[i - 1][j - 1] = Fraction(1)
    return op


def _kron(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    return [
        [a[k][m] * b[l][n] for m in range(4) for n in range(4)]
        for k in range(4)
        for l in range(4)
    ]


def _add(a: list[list[Fraction]], b: list[list[Fraction]], scale: Fraction) -> None:
    """a += scale * b, in place."""
    for row_a, row_b in zip(a, b):
        for c, value in enumerate(row_b):
            row_a[c] += scale * value


def _commutator_im(h: list[list[Fraction]]) -> list[list[Fraction]]:
    """Imaginary part of the superoperator of rho -> -i [h, rho] for a real
    h; its real part is zero."""
    out = _kron(_EYE, [list(col) for col in zip(*h)])
    _add(out, _kron(h, _EYE), Fraction(-1))
    return out


def liouvillian(p) -> tuple[list[list[Fraction]], list[list[Fraction]], list[list[Fraction]]]:
    """(re L, im L, im L1): the superoperator at ``p`` and its derivative
    in the probe detuning, which is purely imaginary."""
    f = {name: Fraction(value) for name, value in vars(p).items()}
    h = [[Fraction(0)] * 4 for _ in range(4)]
    for scale, (i, j) in [
        (f["delta41"], (1, 1)),
        (f["delta42"], (2, 2)),
        (f["delta42"] + f["delta_p"], (3, 3)),
        (-f["g41"], (1, 4)), (-f["g41"], (4, 1)),
        (-f["g42"], (2, 4)), (-f["g42"], (4, 2)),
        (-f["g_p"], (2, 3)), (-f["g_p"], (3, 2)),
    ]:
        h[i - 1][j - 1] += scale
    re = [[Fraction(0)] * 16 for _ in range(16)]
    for rate, (i, j) in [
        (f["gamma41"], (1, 4)),
        (f["gamma42"], (2, 4)),
        (f["gamma23"], (3, 2)),
        (f["gamma13"], (3, 1)),
        (f["lambda_pump"], (2, 3)),
        (f["lambda_pump"], (3, 2)),
    ]:
        # c^dagger c = 2 rate |j><j|
        _add(re, _kron(_proj(i, j), _proj(i, j)), 2 * rate)
        _add(re, _kron(_proj(j, j), _EYE), -rate)
        _add(re, _kron(_EYE, _proj(j, j)), -rate)
    return re, _commutator_im(h), _commutator_im(_proj(3, 3))


def _factor(a: list[list[Fraction]]) -> list[int]:
    """Exact LU factorisation of ``a`` in place (the multipliers below the
    diagonal), with the first nonzero entry of each column as its pivot;
    returns the row order."""
    n = len(a)
    order = list(range(n))
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise ValueError(f"singular system: no pivot in column {k}")
        a[k], a[piv] = a[piv], a[k]
        order[k], order[piv] = order[piv], order[k]
        for r in range(k + 1, n):
            if a[r][k]:
                a[r][k] /= a[k][k]
                for c in range(k + 1, n):
                    if a[k][c]:
                        a[r][c] -= a[r][k] * a[k][c]
    return order


def _substitute(lu: list[list[Fraction]], order: list[int], b: list[Fraction]) -> list[Fraction]:
    n = len(lu)
    y = [b[i] for i in order]
    for i in range(n):
        y[i] -= sum((lu[i][j] * y[j] for j in range(i) if lu[i][j]), Fraction(0))
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        rest = sum((lu[i][j] * x[j] for j in range(i + 1, n) if lu[i][j]), Fraction(0))
        x[i] = (y[i] - rest) / lu[i][i]
    return x


def _to_complex(z: list[Fraction]) -> np.ndarray:
    return np.array([complex(float(r), float(i)) for r, i in zip(z[:16], z[16:])]).reshape(4, 4)


def steady_state_and_derivative(p) -> tuple[np.ndarray, np.ndarray]:
    """Steady-state rho (4x4) and d rho / d delta_p, each entry the double
    nearest the exact rational value.

    With L = R + iI and x = u + iv, L x = b reads [[R, -I], [I, R]] [u; v]
    = [re b; im b]; rows 15 and 31 carry tr u = 1 and tr v = 0.  The
    derivative solves the same matrix with right-hand side -L1 x, whose
    trace rows are zero.
    """
    re, im, d_im = liouvillian(p)
    a = [re[r] + [-v for v in im[r]] for r in range(16)]
    a += [im[r] + re[r] for r in range(16)]
    diagonal = [5 * k for k in range(4)]
    for row, offset in ((_TRACE_ROW, 0), (_TRACE_ROW + 16, 16)):
        a[row] = [Fraction(int(c - offset in diagonal)) for c in range(32)]
    order = _factor(a)
    b = [Fraction(0)] * 32
    b[_TRACE_ROW] = Fraction(1)
    x = _substitute(a, order, b)
    # -L1 x with L1 = i d_im: real part d_im v, imaginary part -d_im u
    u, v = x[:16], x[16:]
    rhs = [sum(d * w for d, w in zip(d_im[r], v)) for r in range(16)]
    rhs += [-sum(d * w for d, w in zip(d_im[r], u)) for r in range(16)]
    rhs[_TRACE_ROW] = rhs[_TRACE_ROW + 16] = Fraction(0)
    dx = _substitute(a, order, rhs)
    return _to_complex(x), _to_complex(dx)

"""Property tests of the steady state over the well-posed region, with
the edges g41 -> 0 and g42 -> 0, Rabi ratios g41/g42 from 1e-4 to 1e4
(the larger Rabi frequency stays in [0.1, 5]), and the trapping boundary
g41, gamma13, lambda -> 0, against the superoperator oracle."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from darkres import NumericError, SystemParams, steady_state, steady_state_derivative
import oracle
from test_steady_state import matrix_residual, walk_residual

# Below this 1->3 decay rate a draw is near the trap.
NEAR_TRAP_GAMMA13 = 1e-3


@st.composite
def well_posed(draw):
    """gamma13 >= 1e-3 reconnects the shelving state, so every draw off
    the "trap" edge has a unique steady state; on that edge g41, gamma13
    and lambda each come from {0, 1e-12, 1e-8}, the exact trap included."""
    strong = draw(st.floats(0.1, 5.0))
    weak = strong * 10.0 ** draw(st.floats(-4.0, 0.0))
    g41, g42 = (weak, strong) if draw(st.booleans()) else (strong, weak)
    gamma13 = draw(st.floats(NEAR_TRAP_GAMMA13, 0.1))
    lambda_pump = draw(st.floats(0.0, 0.05))
    edge = draw(st.sampled_from([None, "g41", "g42", "trap"]))
    tiny = st.sampled_from([0.0, 1e-12, 1e-8])
    if edge == "g41":
        g41 = draw(tiny)
    elif edge == "g42":
        g42 = draw(tiny)
    elif edge == "trap":
        g42 = strong
        g41, gamma13, lambda_pump = draw(tiny), draw(tiny), draw(tiny)
    return SystemParams(
        g41=g41,
        g42=g42,
        g_p=draw(st.floats(1e-5, 0.1)),
        delta41=draw(st.floats(-5.0, 5.0)),
        delta42=draw(st.floats(-5.0, 5.0)),
        delta_p=draw(st.floats(-5.0, 5.0)),
        gamma41=draw(st.floats(0.1, 2.0)),
        gamma42=draw(st.floats(0.1, 2.0)),
        gamma23=draw(st.floats(0.01, 1.0)),
        gamma13=gamma13,
        lambda_pump=lambda_pump,
    )


# Each edge is also pinned by an example, since the drawn examples move
# with the constants of every loaded module: weak fields on the mercury
# rates, a near-trap point, and the exact trap, which is 1 in 27
# trap-edge draws.
PINNED = SystemParams(g42=4.0, g_p=1e-4, gamma41=1.0, gamma42=0.79, gamma23=0.14, gamma13=0.01)


@given(well_posed())
@example(replace(PINNED, g41=1e-12))
@example(replace(PINNED, g41=1e-8))
@example(replace(PINNED, g41=4.0, g42=1e-12))
@example(replace(PINNED, g41=4.0, g42=1e-8))
@example(replace(PINNED, g41=1e-12, gamma13=1e-8))
@example(replace(PINNED, gamma13=0.0))
def test_steady_state_properties(p):
    if p.g41 == p.gamma13 == p.lambda_pump == 0.0:
        with pytest.raises(NumericError) as exc:
            steady_state(p)
        assert exc.value.code == "TRAPPED"
        return
    # near the trap, refusing with BAD_SOLUTION is the contract for
    # numerical trouble; anywhere else a solve must succeed
    near_trap = p.gamma13 < NEAR_TRAP_GAMMA13
    try:
        dm = steady_state(p)
    except NumericError as exc:
        assert near_trap and exc.code == "BAD_SOLUTION", exc
        return
    rho = dm.rho
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    assert abs(dm.trace - 1.0) <= 1e-10
    pops = np.diag(rho)
    assert np.max(np.abs(pops.imag)) <= 1e-10
    assert np.all(pops.real >= -1e-8) and np.all(pops.real <= 1 + 1e-8)
    res = matrix_residual(dm.system_matrix, dm)
    assert res <= 1e-10
    assert abs(res - walk_residual(p, dm)) <= 1e-14
    want, dwant = oracle.steady_state_and_derivative(p)
    assert np.max(np.abs(rho - want)) <= 1e-9
    try:
        drho = steady_state_derivative(dm, "delta_p")
    except NumericError as exc:
        assert near_trap and exc.code == "BAD_SOLUTION", exc
        return
    assert np.max(np.abs(drho - dwant)) <= 1e-9 * np.max(np.abs(dwant))

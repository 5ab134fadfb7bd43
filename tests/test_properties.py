"""Property tests of the steady state over the well-posed region, with
the edges g41 -> 0 and g42 -> 0 and Rabi ratios g41/g42 from 1e-4 to
1e4 (the larger Rabi frequency stays in [0.1, 5])."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from darkres import SystemParams, residual, steady_state
from test_steady_state import lindblad_superoperator_ss, walk_residual


@st.composite
def well_posed(draw):
    """gamma13 > 0 always reconnects the shelving state, so every draw has
    a unique steady state."""
    strong = draw(st.floats(0.1, 5.0))
    weak = strong * 10.0 ** draw(st.floats(-4.0, 0.0))
    g41, g42 = (weak, strong) if draw(st.booleans()) else (strong, weak)
    edge = draw(st.sampled_from([None, "g41", "g42"]))
    if edge == "g41":
        g41 = draw(st.sampled_from([0.0, 1e-12, 1e-8]))
    elif edge == "g42":
        g42 = draw(st.sampled_from([0.0, 1e-12, 1e-8]))
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
        gamma13=draw(st.floats(1e-3, 0.1)),
        lambda_pump=draw(st.floats(0.0, 0.05)),
    )


@given(well_posed())
def test_steady_state_properties(p):
    dm = steady_state(p)
    rho = dm.rho
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    assert abs(dm.trace - 1.0) <= 1e-10
    pops = np.diag(rho)
    assert np.max(np.abs(pops.imag)) <= 1e-10
    assert np.all(pops.real >= -1e-8) and np.all(pops.real <= 1 + 1e-8)
    res = residual(p, dm)
    assert res <= 1e-10
    assert abs(res - walk_residual(p, dm)) <= 1e-14
    assert np.max(np.abs(rho - lindblad_superoperator_ss(p))) <= 1e-9

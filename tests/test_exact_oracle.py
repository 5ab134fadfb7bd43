"""The exact rational oracle against the float superoperator oracle and
the production solver, away from the trap where all three are accurate."""

from dataclasses import replace

import numpy as np
import pytest

from darkres import SystemParams, steady_state, steady_state_derivative
import exact_oracle
import oracle
from test_steady_state import random_valid_params

SPIKE = SystemParams(
    g41=0.04, g42=4.0, g_p=1e-4, gamma13=0.0, gamma41=1.0, gamma42=0.79, gamma23=0.14
)
RNG = np.random.default_rng(17)
CONFIGS = [
    pytest.param(replace(SPIKE, lambda_pump=4e-5), id="pumped"),
    pytest.param(SPIKE, id="spike"),
    pytest.param(replace(SPIKE, g41=0.0, gamma13=0.01), id="undriven"),
] + [pytest.param(random_valid_params(RNG), id=f"draw{k}") for k in range(8)]


def off_by(got, want):
    """Largest state error, and the largest derivative error relative to
    the derivative's largest entry."""
    (x, dx), (y, dy) = got, want
    return np.max(np.abs(x - y)), np.max(np.abs(dx - dy)) / np.max(np.abs(dy))


@pytest.mark.parametrize("p", CONFIGS)
def test_float_oracle_and_production_match_the_exact_solution(p):
    exact = exact_oracle.steady_state_and_derivative(p)
    dm = steady_state(p)
    production = (dm.rho, steady_state_derivative(dm, "delta_p"))
    assert max(off_by(oracle.steady_state_and_derivative(p), exact)) <= 1e-12
    assert max(off_by(production, exact)) <= 1e-14


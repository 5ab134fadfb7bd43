import importlib
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from darkres import MediumParams, SystemParams, observables

# the module, which the package's steady_state function shadows
steady_state_module = importlib.import_module("darkres.steady_state")

# bench/oracle.py is the one superoperator reference of the repository;
# the tests import it as ``oracle`` whether or not bench/ is collected.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

# The one Hypothesis profile: derandomized, no example database, and a
# bound on the examples that keeps the property tests within about a
# second.  Derandomized draws repeat only for the same loaded modules:
# Hypothesis mixes in numeric constants from every local module imported,
# so collecting bench/ or editing any module changes the examples, and a
# property must hold on its whole strategy, not only on today's draws.
settings.register_profile(
    "deterministic", derandomize=True, database=None, max_examples=200, deadline=None
)
settings.load_profile("deterministic")

# Mercury-like decay ratios used throughout: gamma41 is the reference rate.
MERCURY = dict(gamma41=1.0, gamma42=0.79, gamma23=0.14)


@pytest.fixture(autouse=True)
def fresh_evaluation_cache():
    """Start every test without the last numeric chi evaluation, so no
    test's solve counts or values depend on an earlier test."""
    observables._chi_and_derivative.cache_clear()


@pytest.fixture
def undriven_coupling():
    """Pure Autler-Townes configuration: no perturbing field, weak 1->3
    decay added so the steady state is unique."""
    return SystemParams(g41=0.0, g42=4.0, g_p=1e-4, gamma13=0.01, **MERCURY)


@pytest.fixture
def spike_config():
    """Weak perturbing field switched on, 1->3 decay off: narrow absorption
    feature on top of the Autler-Townes profile."""
    return SystemParams(g41=0.04, g42=4.0, g_p=1e-4, gamma13=0.0, **MERCURY)


@pytest.fixture
def pumped_config(spike_config):
    """Spike configuration plus a weak incoherent pump: gain feature."""
    from dataclasses import replace

    return replace(spike_config, lambda_pump=4e-5)


@pytest.fixture
def mercury_medium():
    return MediumParams(
        number_density=1e18, probe_wavelength=253.7e-9, gamma23_over_gamma=0.14
    )


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name, *owners)`` rebinds ``name`` on every owner to a
    counting wrapper of the function the first owner binds, and returns
    the list of positional arguments of its calls."""

    def install(name, *owners):
        calls = []
        original = getattr(owners[0], name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for owner in owners:
            monkeypatch.setattr(owner, name, counted)
        return calls

    return install


@pytest.fixture
def refuse_resolvent_gate(monkeypatch):
    """``refuse_resolvent_gate(gate, value)`` sets the resolvent gate
    ``gate`` of ``darkres.steady_state`` to ``value``.  BACKWARD_TOL also
    gates every direct solve, so it takes ``value`` only while the
    resolvent gates its states."""

    def refuse(gate, value):
        if gate != "BACKWARD_TOL":
            monkeypatch.setattr(steady_state_module, gate, value)
            return
        states = steady_state_module._Resolvent.states

        def lowered(self, s):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(steady_state_module, "BACKWARD_TOL", value)
                return states(self, s)

        monkeypatch.setattr(steady_state_module._Resolvent, "states", lowered)

    return refuse

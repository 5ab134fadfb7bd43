import math
from dataclasses import replace

import numpy as np
import pytest

from darkres import (
    MediumParams,
    Method,
    NumericError,
    ParameterError,
    SystemParams,
    coupling_hamiltonian,
    dispersion_slope,
    dressed_states,
    group_index,
    probe_coherence,
    spike_half_width,
)

FULL, LIMIT, PUMP = Method.ANALYTIC_FULL, Method.ANALYTIC_LIMIT, Method.ANALYTIC_PUMP
# The bench's pump-scan medium: the default one with a reference rate, so
# that the group index is defined.
SI_MEDIUM = MediumParams(gamma_si=1e7)


class TestWeakProbeForm:
    def test_reduces_to_pure_autler_townes_without_perturber(self, undriven_coupling):
        p = replace(undriven_coupling, delta_p=0.3)
        d34 = p.delta_p + 1j * (p.gamma41 + p.gamma42)
        d23 = p.delta_p + 1j * p.gamma23
        expected = p.g_p * d34 / (p.g42**2 - d23 * d34)
        assert probe_coherence(p, FULL) == pytest.approx(expected)

    def test_spike_center_value(self, spike_config):
        # the two-pathway interference term vanishes on resonance without
        # 1->3 decay, leaving a purely absorptive i*g_p/gamma23
        assert probe_coherence(spike_config, FULL) == pytest.approx(
            1j * spike_config.g_p / 0.14, rel=1e-12
        )

    def test_degenerate_denominator(self):
        with pytest.raises(NumericError) as exc:
            probe_coherence(SystemParams(g_p=1e-4), FULL)
        assert exc.value.code == "DIVISION_DEGENERATE"


class TestLimitForm:
    def test_center_value_exact(self, spike_config):
        assert probe_coherence(spike_config, LIMIT) == pytest.approx(
            1j * spike_config.g_p / 0.14, rel=1e-15
        )

    def test_absorptive_everywhere(self, spike_config):
        for d in np.linspace(-1e-3, 1e-3, 10001):
            assert probe_coherence(replace(spike_config, delta_p=d), LIMIT).imag > 0

    def test_half_width_matches_closed_form(self, spike_config):
        peak = probe_coherence(spike_config, LIMIT).imag
        lo, hi = 0.0, 1e-3
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if probe_coherence(replace(spike_config, delta_p=mid), LIMIT).imag > peak / 2:
                lo = mid
            else:
                hi = mid
        measured = 0.5 * (lo + hi)
        assert measured == pytest.approx(spike_half_width(spike_config), rel=0.05)

    def test_agreement_with_full_form_at_strong_drive(self):
        # the limit form drops a real term gamma23*Gamma34 against g42^2,
        # so the agreement floor is ~Gamma^2/g42^2: 1e-3 needs g42 ~ 40
        strong = SystemParams(
            g41=0.4, g42=40.0, g_p=1e-4, gamma41=1.0, gamma42=0.79, gamma23=0.14
        )
        for d in np.linspace(-1e-3, 1e-3, 201):
            p = replace(strong, delta_p=d)
            full = probe_coherence(p, FULL)
            assert abs(probe_coherence(p, LIMIT) - full) / abs(full) <= 1e-3

    def test_agreement_floor_at_figure_drive(self, spike_config):
        worst = 0.0
        for d in np.linspace(-1e-3, 1e-3, 201):
            p = replace(spike_config, delta_p=d)
            full = probe_coherence(p, FULL)
            worst = max(worst, abs(probe_coherence(p, LIMIT) - full) / abs(full))
        assert worst <= 2e-2  # measured ~1.6e-2 = gamma23*Gamma34/g42^2


class TestIncoherentPumpForm:
    def test_center_gain_value(self, pumped_config):
        # frozen from independent evaluation of the closed form
        value = probe_coherence(pumped_config, PUMP)
        assert value == pytest.approx(-2.499863873484003e-4j, rel=1e-12)
        assert value.imag == pytest.approx(-2.50e-4, rel=1e-3)

    def test_gain_everywhere(self, pumped_config):
        for d in np.geomspace(1e-8, 1.0, 300):
            assert probe_coherence(replace(pumped_config, delta_p=d), PUMP).imag < 0
            assert probe_coherence(replace(pumped_config, delta_p=-d), PUMP).imag < 0

    def test_lorentzian_half_width_equals_pump_rate(self, pumped_config):
        lam = pumped_config.lambda_pump
        peak = abs(probe_coherence(pumped_config, PUMP).imag)
        lo, hi = 0.0, 10 * lam
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if abs(probe_coherence(replace(pumped_config, delta_p=mid), PUMP).imag) > peak / 2:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(lam, rel=1e-2)

    def test_dispersion_odd(self, pumped_config):
        assert probe_coherence(pumped_config, PUMP).real == 0.0
        plus = probe_coherence(replace(pumped_config, delta_p=3e-5), PUMP).real
        minus = probe_coherence(replace(pumped_config, delta_p=-3e-5), PUMP).real
        assert plus == pytest.approx(-minus)
        assert plus > 0

    def test_degenerate_at_zero_pump_and_detuning(self, spike_config):
        with pytest.raises(NumericError) as exc:
            probe_coherence(spike_config, PUMP)
        assert exc.value.code == "DIVISION_DEGENERATE"


class TestFeatureScales:
    def test_spike_half_width_value(self, spike_config):
        assert spike_half_width(spike_config) == pytest.approx(1.4e-5, rel=1e-12)

    def test_no_perturber_no_spike(self, undriven_coupling):
        assert spike_half_width(undriven_coupling) == 0.0

    def test_width_quadratic_in_coupling(self, spike_config):
        doubled = replace(spike_config, g41=2 * spike_config.g41)
        assert spike_half_width(doubled) == pytest.approx(
            4 * spike_half_width(spike_config)
        )

    def test_degenerate_without_drive(self):
        with pytest.raises(NumericError) as exc:
            spike_half_width(SystemParams(g41=0.04))
        assert exc.value.code == "DIVISION_DEGENERATE"

    @pytest.mark.parametrize(
        "fields, code",
        [
            (dict(g41=math.nan), "NONFINITE_PARAMETER"),
            (dict(g41=0.04, g42=0.0, gamma23=-0.14), "NEGATIVE_RATE"),
            (dict(g42=-4.0), "NEGATIVE_RABI"),
        ],
        ids=["g41=nan", "gamma23<0", "g42<0"],
    )
    def test_invalid_input_rejected_first(self, spike_config, fields, code):
        with pytest.raises(ParameterError) as exc:
            spike_half_width(replace(spike_config, **fields))
        assert exc.value.code == code


class TestAnalyticGroupIndex:
    """n_g - 1 by the pump form on the pumped config (negative means
    superluminal).  Inside |delta_p| < lambda the pump form's dispersion
    slope is positive, so n_g - 1 is large and positive (slow light); the
    slope vanishes at delta_p = +-lambda, and n_g - 1 is negative outside."""

    def test_positive_at_line_center(self, pumped_config):
        assert group_index(pumped_config, SI_MEDIUM, 0.0, PUMP) - 1 > 0

    def test_zero_exactly_at_pump_rate(self, pumped_config):
        lam = pumped_config.lambda_pump
        for d in (lam, -lam):
            assert dispersion_slope(pumped_config, SI_MEDIUM, d, PUMP)[0] == 0.0

    def test_negative_outside(self, pumped_config):
        lam = pumped_config.lambda_pump
        for d in (1.5 * lam, 3 * lam, 10 * lam):
            assert group_index(pumped_config, SI_MEDIUM, d, PUMP) - 1 < 0

    def test_maximum_at_center(self, pumped_config):
        lam = pumped_config.lambda_pump
        grid = np.linspace(-3 * lam, 3 * lam, 601)
        values = [group_index(pumped_config, SI_MEDIUM, d, PUMP) for d in grid]
        assert grid[int(np.argmax(values))] == pytest.approx(0.0, abs=grid[1] - grid[0])

    def test_numeric_route_has_the_same_signs(self, pumped_config):
        # measured: +1.17e10 at the centre against the pump form's +5.06e10
        lam = pumped_config.lambda_pump
        signs = [
            math.copysign(1.0, group_index(pumped_config, SI_MEDIUM, d) - 1)
            for d in (0.0, 1.5 * lam, 3 * lam, 10 * lam)
        ]
        assert signs == [1.0, -1.0, -1.0, -1.0]


class TestDressedStates:
    def test_bare_limit_without_perturber(self):
        ds = dressed_states(0.0, 4.0)
        assert ds.energies == (0.0, 4.0, -4.0)
        assert ds.amplitudes[0] == (-1.0, 0.0, 0.0)

    def test_frozen_figure_values(self):
        ds = dressed_states(0.04, 4.0)
        assert ds.energies[1] == pytest.approx(4.000199995, abs=1e-9)
        assert ds.amplitudes[0][1] == pytest.approx(0.0099995, rel=1e-4)

    def test_orthonormal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g41, g42 = rng.uniform(0.01, 5, size=2)
            vecs = np.array(dressed_states(g41, g42).amplitudes)
            assert np.allclose(vecs @ vecs.T, np.eye(3), atol=1e-12)

    def test_eigendecomposition_of_drive_hamiltonian(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g41, g42 = rng.uniform(0.01, 5, size=2)
            ds = dressed_states(g41, g42)
            h = coupling_hamiltonian(g41, g42)
            for energy, amps in zip(ds.energies, ds.amplitudes):
                v = np.array(amps)
                assert np.max(np.abs(h @ v - energy * v)) <= 1e-12

    def test_degenerate(self):
        with pytest.raises(NumericError) as exc:
            dressed_states(0.0, 0.0)
        assert exc.value.code == "DEGENERATE"

    @pytest.mark.parametrize(
        "g41, g42, code",
        [
            (math.nan, 4.0, "NONFINITE_PARAMETER"),
            (math.inf, 4.0, "NONFINITE_PARAMETER"),
            (0.04, -math.inf, "NONFINITE_PARAMETER"),
            (0.04, -4.0, "NEGATIVE_RABI"),
            (-0.04, 0.0, "NEGATIVE_RABI"),
        ],
    )
    def test_invalid_couplings_rejected(self, g41, g42, code):
        with pytest.raises(ParameterError) as exc:
            dressed_states(g41, g42)
        assert exc.value.code == code


def test_pump_form_matches_weak_probe_form_at_vanishing_pump(spike_config):
    # cross-consistency of the two expansions: for pump rate well above
    # the inversion scale but far below all decay rates, and detuning well
    # outside the pump width, both forms describe the same wing
    p = replace(spike_config, g41=0.004, lambda_pump=2e-6, delta_p=5e-4)
    pump_form = probe_coherence(p, PUMP)
    weak_form = probe_coherence(replace(p, lambda_pump=0.0), FULL)
    assert math.isclose(abs(pump_form.real), abs(weak_form.real), rel_tol=0.3)

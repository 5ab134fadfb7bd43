from dataclasses import replace

import numpy as np
import pytest

from darkres import (
    ConfigError,
    Method,
    NumericError,
    ParameterError,
    auto_zero_bracket,
    chi_at,
    chi_prefactor,
    chi_spectrum,
    dispersion_slope,
    find_absorption_zero,
    find_absorption_zero_auto,
    find_gain_threshold,
    group_index,
    locate_features,
    probe_coherence,
    susceptibility,
)


class TestSusceptibility:
    def test_prefactor_mercury_numbers(self, mercury_medium):
        k = chi_prefactor(mercury_medium)
        assert k == pytest.approx(1.7372045386902804e-4, rel=1e-12)
        assert k == pytest.approx(1.74e-4, rel=1e-2)

    def test_zero_coherence_gives_zero(self, mercury_medium):
        assert susceptibility(0.0, mercury_medium, 1e-4) == 0.0

    def test_pumped_center_value(self, pumped_config, mercury_medium):
        chi = susceptibility(
            -2.499863873484003e-4j, mercury_medium, pumped_config.g_p
        )
        assert chi == pytest.approx(-4.3427748671242747e-4j, rel=1e-12)
        assert chi.imag == pytest.approx(-4.35e-4, rel=1e-2)

    def test_requires_positive_probe(self, mercury_medium):
        with pytest.raises(ParameterError):
            susceptibility(1e-4j, mercury_medium, 0.0)

    def test_chi_at_routes(self, spike_config, mercury_medium):
        for method in Method:
            chi = chi_at(spike_config, mercury_medium, 1e-6, method)
            rho = probe_coherence(replace(spike_config, delta_p=1e-6), method)
            assert chi == susceptibility(rho, mercury_medium, spike_config.g_p)


class TestChiSpectrum:
    def test_order_and_methods(self, spike_config, mercury_medium):
        grid = [-0.2, 0.0, 0.2]
        pts = chi_spectrum(spike_config, mercury_medium, grid, Method.ANALYTIC_FULL)
        assert [p.delta_p for p in pts] == grid
        assert all(p.method is Method.ANALYTIC_FULL for p in pts)

    def test_failed_point_skipped(self, spike_config, mercury_medium):
        # without pumping the pump form is undefined exactly on resonance
        grid = [-1e-4, 0.0, 1e-4]
        pts = chi_spectrum(spike_config, mercury_medium, grid, Method.ANALYTIC_PUMP)
        assert [p.delta_p for p in pts] == [-1e-4, 1e-4]

    def test_empty_grid_rejected(self, spike_config, mercury_medium):
        with pytest.raises(ConfigError) as exc:
            chi_spectrum(spike_config, mercury_medium, [])
        assert exc.value.code == "RANGE_ERROR"

    def test_unsorted_grid_rejected(self, spike_config, mercury_medium):
        with pytest.raises(ConfigError):
            chi_spectrum(spike_config, mercury_medium, [0.1, -0.1])

    def test_spectrum_symmetry(self, pumped_config, mercury_medium):
        grid = np.linspace(1e-6, 5e-4, 21)
        scale = 0.0
        defect = 0.0
        for d in grid:
            plus = chi_at(pumped_config, mercury_medium, +d)
            minus = chi_at(pumped_config, mercury_medium, -d)
            scale = max(scale, abs(plus))
            defect = max(defect, abs(plus.imag - minus.imag), abs(plus.real + minus.real))
        assert defect <= 1e-6 * scale


class TestDispersionSlope:
    def test_exact_on_quadratic(self, spike_config, mercury_medium):
        for x, h in ((0.0, 1e-3), (0.7, 0.1), (-2.0, 1.0)):
            slope, err = dispersion_slope(
                spike_config, mercury_medium, x, h=h, chi_real=lambda d: 3.0 * d * d
            )
            assert slope == pytest.approx(6.0 * x, abs=1e-12)
            assert err <= 1e-12

    def test_step_too_coarse(self, spike_config, mercury_medium):
        with pytest.raises(NumericError) as exc:
            dispersion_slope(
                spike_config, mercury_medium, 0.0, h=1.0,
                chi_real=lambda d: np.tanh(d / 1e-6),
            )
        assert exc.value.code == "STEP_TOO_COARSE"

    def test_signs_at_line_center(
        self, undriven_coupling, spike_config, pumped_config, mercury_medium
    ):
        assert dispersion_slope(undriven_coupling, mercury_medium, 0.0)[0] > 0
        assert dispersion_slope(spike_config, mercury_medium, 0.0)[0] < 0
        assert dispersion_slope(pumped_config, mercury_medium, 0.0)[0] > 0

    def test_invalid_step(self, spike_config, mercury_medium):
        with pytest.raises(ConfigError):
            dispersion_slope(spike_config, mercury_medium, 0.0, h=-1.0)

    @pytest.mark.parametrize(
        "config, where",
        [
            ("pumped_config", 0.0),
            ("spike_config", 0.0),
            ("undriven_coupling", 0.0),
            ("pumped_config", +1),
            ("pumped_config", -1),
        ],
    )
    def test_exact_matches_richardson(self, config, where, mercury_medium, request):
        """The numeric route's exact derivative against the step-halving
        finite difference of the same chi', injected so that it takes the
        finite-difference route; +-1 stands for +-delta0."""
        p = request.getfixturevalue(config)
        m = mercury_medium
        if where:
            bracket = (1e-5, 1e-3) if where > 0 else (-1e-3, -1e-5)
            where = find_absorption_zero(p, m, bracket)
        slope, err = dispersion_slope(p, m, where)
        richardson, _ = dispersion_slope(
            p, m, where, chi_real=lambda d: chi_at(p, m, d).real
        )
        assert err == 0.0
        assert abs(slope - richardson) <= 1e-6 * abs(richardson)


class TestGroupIndex:
    def test_vacuum_stub(self, spike_config, mercury_medium):
        m = replace(mercury_medium, gamma_si=1e7)
        assert group_index(spike_config, m, 0.0, chi_real=lambda d: 0.0) == 1.0

    def test_requires_reference_rate(self, spike_config, mercury_medium):
        with pytest.raises(ConfigError) as exc:
            group_index(spike_config, mercury_medium, 0.0)
        assert exc.value.code == "RANGE_ERROR"

    def test_pumped_center_subluminal(self, pumped_config, mercury_medium):
        m = replace(mercury_medium, gamma_si=1e7)
        assert group_index(pumped_config, m, 0.0) > 1.0

    def test_spike_center_superluminal(self, spike_config, mercury_medium):
        m = replace(mercury_medium, gamma_si=1e7)
        assert group_index(spike_config, m, 0.0) < 1.0

    def test_numeric_from_slope_and_chi(self, pumped_config, mercury_medium):
        m = replace(mercury_medium, gamma_si=1e7)
        omega_p = 2 * np.pi * 299792458.0 / m.probe_wavelength
        for d in (0.0, 1e-4, -3e-4):
            slope, _ = dispersion_slope(pumped_config, m, d)
            chi_prime = chi_at(pumped_config, m, d).real
            want = 1.0 + 2 * np.pi * chi_prime + 2 * np.pi * omega_p * slope / m.gamma_si
            assert group_index(pumped_config, m, d) == want


class TestAbsorptionZero:
    def test_pumped_crossing_value(self, pumped_config, mercury_medium):
        z = find_absorption_zero(pumped_config, mercury_medium, (1e-5, 1e-3))
        assert z == pytest.approx(2.624e-4, rel=1e-3)
        assert abs(chi_at(pumped_config, mercury_medium, z).imag) <= 1e-8

    def test_mirrored_bracket(self, pumped_config, mercury_medium):
        z = find_absorption_zero(pumped_config, mercury_medium, (-1e-3, -1e-5))
        assert z == pytest.approx(-2.624e-4, rel=1e-3)

    def test_dispersion_nonzero_with_negative_slope_at_crossing(
        self, pumped_config, mercury_medium
    ):
        z = find_absorption_zero(pumped_config, mercury_medium, (1e-5, 1e-3))
        chi = chi_at(pumped_config, mercury_medium, z)
        assert chi.real > 0
        assert dispersion_slope(pumped_config, mercury_medium, z)[0] < 0

    def test_no_crossing_without_pump(self, spike_config, mercury_medium):
        with pytest.raises(NumericError) as exc:
            find_absorption_zero(spike_config, mercury_medium, (1e-5, 1e-3))
        assert exc.value.code == "NO_SIGN_CHANGE"

    def test_bad_bracket(self, pumped_config, mercury_medium):
        with pytest.raises(ConfigError):
            find_absorption_zero(pumped_config, mercury_medium, (1e-3, 1e-5))

    def test_auto_bracket(self, pumped_config):
        assert auto_zero_bracket(pumped_config) == (0.0, 10 * 4e-5)

    def test_auto_bracket_needs_a_feature_scale(self):
        from darkres import SystemParams

        with pytest.raises(NumericError):
            auto_zero_bracket(SystemParams(gamma41=1.0))

    def test_auto_finder_expands_for_strong_drive(self, pumped_config, mercury_medium):
        # at g42=10 the crossing sits ~18 pump widths out, beyond the
        # initial ten-widths bracket
        p = replace(pumped_config, g42=10.0)
        z = find_absorption_zero_auto(p, mercury_medium)
        assert z > 10 * p.lambda_pump
        assert abs(chi_at(p, mercury_medium, z).imag) <= 1e-8

    def test_auto_finder_sides(self, pumped_config, mercury_medium):
        plus = find_absorption_zero_auto(pumped_config, mercury_medium, side=+1)
        minus = find_absorption_zero_auto(pumped_config, mercury_medium, side=-1)
        assert plus == pytest.approx(-minus, rel=1e-9)


class TestGainThreshold:
    def test_threshold_value(self, spike_config, mercury_medium):
        star = find_gain_threshold(spike_config, mercury_medium, (1e-7, 1e-2))
        assert star == pytest.approx(1.644e-5, rel=1e-2)

    def test_no_inversion_without_perturber(self, undriven_coupling, mercury_medium):
        with pytest.raises(NumericError) as exc:
            find_gain_threshold(undriven_coupling, mercury_medium, (1e-7, 1e-2))
        assert exc.value.code == "NO_SIGN_CHANGE"

    def test_bad_range(self, spike_config, mercury_medium):
        with pytest.raises(ConfigError):
            find_gain_threshold(spike_config, mercury_medium, (1e-2, 1e-7))


class TestLocateFeatures:
    def test_bundle(self, pumped_config, mercury_medium):
        report = locate_features(
            pumped_config,
            mercury_medium,
            zero_brackets=[(1e-5, 1e-3), (-1e-3, -1e-5), (0.5, 0.6)],
            slope_points=[0.0],
            lambda_range=(1e-7, 1e-2),
        )
        assert report.zero_crossings == sorted(report.zero_crossings)
        assert len(report.zero_crossings) == 2
        for z in report.zero_crossings:
            assert abs(chi_at(pumped_config, mercury_medium, z).imag) <= 1e-8
        assert report.slope_at[0.0] > 0
        assert report.gain_threshold == pytest.approx(1.644e-5, rel=1e-2)


def test_cheap_methods_agree_with_numeric_on_the_wing(spike_config, mercury_medium):
    chi_n = chi_at(spike_config, mercury_medium, 2.0)
    chi_a = chi_at(spike_config, mercury_medium, 2.0, Method.ANALYTIC_FULL)
    assert abs(chi_n - chi_a) / abs(chi_n) <= 1e-3

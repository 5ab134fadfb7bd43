import math
from dataclasses import replace

import numpy as np
import pytest

from darkres import (
    Axis,
    ConfigError,
    MediumParams,
    Method,
    NumericError,
    ParameterError,
    SweepSpec,
    SystemParams,
    auto_zero_bracket,
    chi_at,
    chi_prefactor,
    dispersion_slope,
    find_absorption_zero,
    find_absorption_zero_auto,
    find_gain_threshold,
    group_index,
    parse_config,
    probe_coherence,
    run_sweep,
    spike_half_width,
    susceptibility,
)
from darkres import observables
from darkres.model import PARAM_FIELDS, check_params
import oracle


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

    def test_two_level_cross_section_is_si(self):
        # a bare, weakly probed two-level transition absorbs with the
        # resonant cross section sigma0 = 3 lambda^2 / 2 pi, and in SI
        # units its power absorption coefficient is k Im chi = N sigma0
        spec = parse_config("g41=0\ng42=0\ngamma13=0.01\ngp=1e-5\ndp=0\n")
        m = spec.medium
        sigma0 = 3 * m.probe_wavelength**2 / (2 * math.pi)
        k = 2 * math.pi / m.probe_wavelength
        ratio = k * chi_at(spec.params, m).imag / (m.number_density * sigma0)
        assert abs(ratio - 1) <= 1e-6

    def test_chi_at_routes(self, spike_config, mercury_medium):
        for method in Method:
            chi = chi_at(spike_config, mercury_medium, 1e-6, method)
            rho = probe_coherence(replace(spike_config, delta_p=1e-6), method)
            assert chi == susceptibility(rho, mercury_medium, spike_config.g_p)


# Every invalid value of every field that chi_at does not set itself.
INVALID_FIELDS = [
    (name, value)
    for name in PARAM_FIELDS
    if name != "delta_p"
    for value in (math.nan, math.inf, -1.0)
    if not (name.startswith("delta") and value == -1.0)
]


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("name, value", INVALID_FIELDS)
def test_chi_at_checks_input_first(spike_config, mercury_medium, method, name, value):
    # at delta_p = lambda = 0 the pump form's Lorentzian vanishes, so an
    # input check after it would report DIVISION_DEGENERATE instead
    p = replace(spike_config, **{name: value})
    with pytest.raises(ParameterError) as want:
        check_params(p)
    with pytest.raises(ParameterError) as got:
        chi_at(p, mercury_medium, 0.0, method)
    assert got.value.code == want.value.code


def delta_p_sweep(p, m, start, stop, points, method=Method.NUMERIC):
    return run_sweep(
        SweepSpec(
            params=p, medium=m, axis=Axis.DELTA_P, start=start, stop=stop,
            points=points, method=method,
        )
    )


class TestChiSpectrum:
    """The spectrum API is a DELTA_P ``run_sweep``, for any method."""

    def test_order_and_methods(self, spike_config, mercury_medium):
        m = mercury_medium
        table = delta_p_sweep(spike_config, m, -0.2, 0.2, 3, Method.ANALYTIC_FULL)
        assert table.metadata["method"] == "ANALYTIC_FULL"
        assert [row[0] for row in table.rows] == [-0.2, 0.0, 0.2]
        for d, re_v, im_v in table.rows:
            assert complex(re_v, im_v) == chi_at(spike_config, m, d, Method.ANALYTIC_FULL)

    def test_failed_point_skipped(self, spike_config, mercury_medium):
        # without pumping the pump form is undefined exactly on resonance
        table = delta_p_sweep(
            spike_config, mercury_medium, -1e-4, 1e-4, 3, Method.ANALYTIC_PUMP
        )
        assert [row[0] for row in table.rows] == [-1e-4, 1e-4]
        assert table.failures == [(0.0, "DIVISION_DEGENERATE")]

    def test_empty_grid_rejected(self, spike_config, mercury_medium):
        with pytest.raises(ConfigError) as exc:
            delta_p_sweep(spike_config, mercury_medium, -0.1, 0.1, 0)
        assert exc.value.code == "RANGE_ERROR"

    def test_unsorted_grid_rejected(self, spike_config, mercury_medium):
        with pytest.raises(ConfigError):
            delta_p_sweep(spike_config, mercury_medium, 0.1, -0.1, 3)

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


def richardson_slope(p, m, delta_p, method):
    """Step-halving central difference of chi' at ``delta_p``, the step
    1e-2 of the narrowest feature scale (pump rate or spike half width)."""
    scales = [s for s in (p.lambda_pump, spike_half_width(p)) if s > 0]
    h = 1e-2 * min(scales) if scales else 1e-3

    def chi_real(d):
        return chi_at(p, m, d, method).real

    d1 = (chi_real(delta_p + h) - chi_real(delta_p - h)) / (2 * h)
    d2 = (chi_real(delta_p + h / 2) - chi_real(delta_p - h / 2)) / h
    return (4 * d2 - d1) / 3


@pytest.fixture
def detuned_config(spike_config):
    return replace(spike_config, delta41=0.3, delta42=-0.2)


# (method, fixture, detuning); +-1 stands for +-delta0 of the numeric
# steady state.  Each closed form only where it is defined.
SLOPE_CASES = [
    (Method.NUMERIC, "pumped_config", 0.0),
    (Method.NUMERIC, "spike_config", 0.0),
    (Method.NUMERIC, "undriven_coupling", 0.0),
    (Method.NUMERIC, "pumped_config", +1),
    (Method.NUMERIC, "pumped_config", -1),
    (Method.ANALYTIC_FULL, "spike_config", 0.0),
    (Method.ANALYTIC_FULL, "undriven_coupling", 0.0),
    (Method.ANALYTIC_FULL, "detuned_config", 0.5),
    (Method.ANALYTIC_FULL, "pumped_config", +1),
    (Method.ANALYTIC_LIMIT, "spike_config", 0.0),
    (Method.ANALYTIC_LIMIT, "spike_config", 2e-5),
    (Method.ANALYTIC_PUMP, "pumped_config", 0.0),
    (Method.ANALYTIC_PUMP, "pumped_config", +1),
    (Method.ANALYTIC_PUMP, "pumped_config", -1),
]


class TestDispersionSlope:
    def test_signs_at_line_center(
        self, undriven_coupling, spike_config, pumped_config, mercury_medium
    ):
        assert dispersion_slope(undriven_coupling, mercury_medium, 0.0)[0] > 0
        assert dispersion_slope(spike_config, mercury_medium, 0.0)[0] < 0
        assert dispersion_slope(pumped_config, mercury_medium, 0.0)[0] > 0

    @pytest.mark.parametrize(
        "method, config, where",
        [
            pytest.param(
                method, config, where,
                id=f"{config}-{where}" if method is Method.NUMERIC
                else f"{method.value}-{config}-{where}",
            )
            for method, config, where in SLOPE_CASES
        ],
    )
    def test_exact_matches_richardson(self, method, config, where, mercury_medium, request):
        """Every method's exact detuning derivative against a step-halving
        finite difference of the same method's chi'."""
        p = request.getfixturevalue(config)
        m = mercury_medium
        if where in (-1, 1):
            bracket = (1e-5, 1e-3) if where > 0 else (-1e-3, -1e-5)
            where = find_absorption_zero(p, m, bracket)
        slope, err = dispersion_slope(p, m, where, method)
        richardson = richardson_slope(p, m, where, method)
        assert err == 0.0
        assert abs(slope - richardson) <= 1e-6 * abs(richardson)

    def test_closed_form_degenerate_point(self, spike_config, mercury_medium):
        # the pump form is undefined at zero detuning without pumping, and
        # so is its slope
        with pytest.raises(NumericError) as exc:
            dispersion_slope(spike_config, mercury_medium, 0.0, Method.ANALYTIC_PUMP)
        assert exc.value.code == "DIVISION_DEGENERATE"
        # without coupling field and pump its prefactor is undefined too
        p = SystemParams(g_p=1e-4, delta_p=1.0, gamma23=0.14)
        with pytest.raises(NumericError, match="prefactor denominator vanished") as exc:
            chi_at(p, MediumParams(), method=Method.ANALYTIC_PUMP)
        assert exc.value.code == "DIVISION_DEGENERATE"


class TestGroupIndex:
    def test_vacuum_stub(self, spike_config, mercury_medium, monkeypatch):
        # chi' and its slope stubbed to the vacuum's zero leave n_g = 1
        monkeypatch.setattr(
            observables, "_chi_and_slope", lambda p, m, d, method: (0j, 0j)
        )
        m = replace(mercury_medium, gamma_si=1e7)
        assert group_index(spike_config, m, 0.0) == 1.0

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
        for method in Method:
            for d in (0.0, 1e-4, -3e-4):
                slope, _ = dispersion_slope(pumped_config, m, d, method)
                chi = chi_at(pumped_config, m, d, method)
                want = oracle.group_index(chi, slope, m)
                assert group_index(pumped_config, m, d, method) == want


def bits(z):
    """Exact bit pattern of a complex or float value, signed zeros apart."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


class TestSharedEvaluation:
    # the zero finder verifies its root with the steady state and detuning
    # derivative that the slope and group index at that root then reuse

    def test_slope_and_group_index_at_delta0_solve_nothing(
        self, pumped_config, mercury_medium, count_calls
    ):
        m = replace(mercury_medium, gamma_si=1e7)
        z = find_absorption_zero_auto(pumped_config, m)
        states = count_calls("steady_state", observables)
        derivatives = count_calls("steady_state_derivative", observables)
        slope = dispersion_slope(pumped_config, m, z)
        n_g = group_index(pumped_config, m, z)
        assert (len(states), len(derivatives)) == (0, 0)
        observables._chi_and_derivative.cache_clear()
        assert bits(dispersion_slope(pumped_config, m, z)[0]) == bits(slope[0])
        observables._chi_and_derivative.cache_clear()
        assert bits(group_index(pumped_config, m, z)) == bits(n_g)
        assert (len(states), len(derivatives)) == (2, 2)

    @pytest.mark.parametrize("field", ["delta_p", "delta41", "delta42", "gamma13", "lambda_pump"])
    def test_signed_zero_keys_give_identical_values(self, pumped_config, mercury_medium, field):
        # 0.0 == -0.0, so the two keys share a cache entry; their values
        # must then agree bit for bit
        plus, minus = (replace(pumped_config, **{field: z}) for z in (0.0, -0.0))
        assert plus == minus
        values = []
        for p in (plus, minus):
            observables._chi_and_derivative.cache_clear()
            chi, dchi = observables._chi_and_derivative(p, mercury_medium)
            values.append((bits(chi), bits(dchi)))
        assert values[0] == values[1]


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


def test_cheap_methods_agree_with_numeric_on_the_wing(spike_config, mercury_medium):
    chi_n = chi_at(spike_config, mercury_medium, 2.0)
    chi_a = chi_at(spike_config, mercury_medium, 2.0, Method.ANALYTIC_FULL)
    assert abs(chi_n - chi_a) / abs(chi_n) <= 1e-3

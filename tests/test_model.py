import math
from dataclasses import replace

import numpy as np
import pytest

from darkres import (
    MediumParams,
    ParameterError,
    Regime,
    SystemParams,
    damping_table,
    validate_params,
)


class TestDampingTable:
    def test_mercury_ratios(self, undriven_coupling):
        d = damping_table(undriven_coupling)
        assert d.gamma_total == (0.01, 0.14, 0.0, 1.79)
        assert d.big_gamma(2, 3) == pytest.approx(0.14)
        assert d.big_gamma(3, 4) == pytest.approx(1.79)
        assert d.big_gamma(2, 4) == pytest.approx(1.93)
        assert d.big_gamma(1, 3) == pytest.approx(0.01)
        assert d.big_gamma(1, 4) == pytest.approx(1.80)
        assert d.big_gamma(1, 2) == pytest.approx(0.15)

    def test_all_rates_zero(self):
        d = damping_table(SystemParams())
        for i in range(1, 5):
            for j in range(1, 5):
                assert d.big_gamma(i, j) == 0.0

    def test_no_ground_decay_case(self, spike_config):
        d = damping_table(spike_config)
        assert d.big_gamma(1, 3) == 0.0
        assert d.big_gamma(1, 2) == pytest.approx(0.14)

    def test_symmetric(self, undriven_coupling):
        d = damping_table(undriven_coupling)
        for i in range(1, 5):
            for j in range(1, 5):
                assert d.big_gamma(i, j) == d.big_gamma(j, i)

    def test_probe_coherence_damping_equals_its_decay_rate(self):
        # state |3> never decays, so the 2-3 coherence damps at gamma23
        # alone; this is what sets the narrow-feature width.
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = SystemParams(
                gamma41=rng.uniform(0, 2),
                gamma42=rng.uniform(0, 2),
                gamma23=rng.uniform(0, 1),
                gamma13=rng.uniform(0, 0.1),
            )
            assert damping_table(p).big_gamma(2, 3) == p.gamma23

    def test_pump_not_folded_into_damping(self, pumped_config):
        with_pump = damping_table(pumped_config)
        without = damping_table(replace(pumped_config, lambda_pump=0.0))
        assert with_pump == without


class TestValidateParams:
    def test_spike_config_flags(self, spike_config):
        flags = {f.regime for f in validate_params(spike_config)}
        assert flags == {Regime.WEAK_PROBE, Regime.LIMIT_REGIME}

    def test_pumped_config_reports_pump_margin(self, pumped_config):
        flags = {f.regime: f.margin for f in validate_params(pumped_config)}
        assert Regime.PUMP_REGIME in flags
        # pump rate is 4e-5 against an inversion scale of 1.4e-5
        assert flags[Regime.PUMP_REGIME] == pytest.approx(4e-5 / 1.4e-5, rel=1e-12)
        assert round(flags[Regime.PUMP_REGIME], 1) == 2.9

    def test_negative_rabi_rejected(self):
        with pytest.raises(ParameterError) as exc:
            validate_params(SystemParams(g41=-1.0))
        assert exc.value.code == "NEGATIVE_RABI"

    def test_negative_rate_rejected(self):
        with pytest.raises(ParameterError) as exc:
            validate_params(SystemParams(gamma23=-0.1))
        assert exc.value.code == "NEGATIVE_RATE"

    def test_nonfinite_detuning_rejected(self):
        with pytest.raises(ParameterError) as exc:
            validate_params(SystemParams(delta_p=math.nan))
        assert exc.value.code == "NONFINITE_DETUNING"

    @pytest.mark.parametrize("name", ["g41", "g42", "g_p", "gamma41", "gamma13", "lambda_pump"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_field_rejected(self, name, value):
        with pytest.raises(ParameterError) as exc:
            validate_params(SystemParams(**{name: value}))
        assert exc.value.code == "NONFINITE_PARAMETER"

    @pytest.mark.parametrize(
        "name", ["number_density", "probe_wavelength", "gamma23_over_gamma", "gamma_si"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_medium_rejected(self, name, value):
        with pytest.raises(ParameterError):
            replace(MediumParams(), **{name: value}).check()

    def test_pure(self, pumped_config):
        assert validate_params(pumped_config) == validate_params(pumped_config)

    def test_strong_probe_drops_weak_flag(self, spike_config):
        flags = {f.regime for f in validate_params(replace(spike_config, g_p=0.1))}
        assert Regime.WEAK_PROBE not in flags

    def test_detuned_drive_drops_limit_flag(self, spike_config):
        flags = {f.regime for f in validate_params(replace(spike_config, delta42=0.5))}
        assert Regime.LIMIT_REGIME not in flags

    def test_pump_beyond_fast_decay_drops_pump_flag(self, pumped_config):
        flags = {f.regime for f in validate_params(replace(pumped_config, lambda_pump=2.0))}
        assert Regime.PUMP_REGIME not in flags

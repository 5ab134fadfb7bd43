import math
from dataclasses import replace

import numpy as np
import pytest

from darkres import MediumParams, ParameterError, SystemParams
from darkres.model import check_params, coherence_damping

PAIRS = [(i, j) for i in range(1, 5) for j in range(1, 5)]


class TestDampingTable:
    """``coherence_damping(p, i, j)`` is Gamma_i + Gamma_j; state |3> does
    not decay, so Gamma(i, 3) reads back the per-state total Gamma_i."""

    def test_mercury_ratios(self, undriven_coupling):
        p = undriven_coupling
        assert tuple(coherence_damping(p, i, 3) for i in range(1, 5)) == (0.01, 0.14, 0.0, 1.79)
        assert coherence_damping(p, 2, 3) == pytest.approx(0.14)
        assert coherence_damping(p, 3, 4) == pytest.approx(1.79)
        assert coherence_damping(p, 2, 4) == pytest.approx(1.93)
        assert coherence_damping(p, 1, 3) == pytest.approx(0.01)
        assert coherence_damping(p, 1, 4) == pytest.approx(1.80)
        assert coherence_damping(p, 1, 2) == pytest.approx(0.15)

    def test_all_rates_zero(self):
        for i, j in PAIRS:
            assert coherence_damping(SystemParams(), i, j) == 0.0

    def test_no_ground_decay_case(self, spike_config):
        assert coherence_damping(spike_config, 1, 3) == 0.0
        assert coherence_damping(spike_config, 1, 2) == pytest.approx(0.14)

    def test_symmetric(self, undriven_coupling):
        for i, j in PAIRS:
            assert coherence_damping(undriven_coupling, i, j) == coherence_damping(
                undriven_coupling, j, i
            )

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
            assert coherence_damping(p, 2, 3) == p.gamma23

    def test_pump_not_folded_into_damping(self, pumped_config):
        without = replace(pumped_config, lambda_pump=0.0)
        for i, j in PAIRS:
            assert coherence_damping(pumped_config, i, j) == coherence_damping(without, i, j)


class TestValidateParams:
    """Invalid input is rejected by ``check_params`` and
    ``MediumParams.check``, each with its named violation."""

    def test_negative_rabi_rejected(self):
        with pytest.raises(ParameterError) as exc:
            check_params(SystemParams(g41=-1.0))
        assert exc.value.code == "NEGATIVE_RABI"

    def test_negative_rate_rejected(self):
        with pytest.raises(ParameterError) as exc:
            check_params(SystemParams(gamma23=-0.1))
        assert exc.value.code == "NEGATIVE_RATE"

    def test_nonfinite_detuning_rejected(self):
        with pytest.raises(ParameterError) as exc:
            check_params(SystemParams(delta_p=math.nan))
        assert exc.value.code == "NONFINITE_DETUNING"

    @pytest.mark.parametrize("name", ["g41", "g42", "g_p", "gamma41", "gamma13", "lambda_pump"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_field_rejected(self, name, value):
        with pytest.raises(ParameterError) as exc:
            check_params(SystemParams(**{name: value}))
        assert exc.value.code == "NONFINITE_PARAMETER"

    @pytest.mark.parametrize(
        "name", ["number_density", "probe_wavelength", "gamma23_over_gamma", "gamma_si"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_medium_rejected(self, name, value):
        with pytest.raises(ParameterError):
            replace(MediumParams(), **{name: value}).check()

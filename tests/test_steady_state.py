import importlib
from dataclasses import fields, replace

import numpy as np
import pytest

from darkres import (
    Method,
    NumericError,
    SystemParams,
    assemble,
    probe_coherence,
    solve_linear,
    steady_state,
    steady_state_derivative,
)
from darkres.model import PARAM_FIELDS, coherence_damping
from darkres.steady_state import (
    RHS,
    DensityMatrix,
    _basis,
    _gate,
    _index,
    _transcribe,
    equations_of_motion,
)
import oracle

# The package binds the name steady_state to the function, so the module
# is looked up by its full name.
steady_state_module = importlib.import_module("darkres.steady_state")


def random_valid_params(rng):
    """Well-posed draw: some channel always reconnects the shelving state."""
    return SystemParams(
        g41=rng.uniform(0, 2),
        g42=rng.uniform(0.1, 5),
        g_p=rng.uniform(1e-5, 0.1),
        delta41=rng.uniform(-5, 5),
        delta42=rng.uniform(-5, 5),
        delta_p=rng.uniform(-5, 5),
        gamma41=rng.uniform(0.1, 2),
        gamma42=rng.uniform(0.1, 2),
        gamma23=rng.uniform(0.01, 1),
        gamma13=rng.uniform(1e-3, 0.1),
        lambda_pump=rng.uniform(0, 0.05),
    )


def walk_residual(p, dm):
    """Reference: the residual as a walk over the equations of motion, the
    forward equations and the closure of the trace, without the matrix."""
    rho = dm.rho
    worst = 0.0
    for coeffs in equations_of_motion(p).values():
        acc = sum(c * rho[k - 1, l - 1] for (k, l), c in coeffs.items())
        worst = max(worst, abs(acc))
    closure = abs(rho[3, 3] - (1.0 - rho[0, 0] - rho[1, 1] - rho[2, 2]))
    return max(worst, float(closure))


def matrix_residual(a, dm):
    """Max norm of ``a x - RHS`` at the state ``dm``."""
    return float(np.max(np.abs(a @ dm.rho.reshape(16) - RHS)))


def conserved_rho11_draws():
    """306 seeded draws at g41 = g42 = gamma13 = 0, the other fields from
    the general-draw ranges: nothing leaves or enters |1>, so rho11 is
    conserved and no steady state is unique.  LAPACK's solve raises on
    most of them, but returns a state that passes the gate on about 50."""
    rng = np.random.default_rng(1)
    return [
        SystemParams(
            g_p=rng.uniform(1e-5, 0.1), delta41=rng.uniform(-5, 5),
            delta42=rng.uniform(-5, 5), delta_p=rng.uniform(-5, 5),
            gamma41=rng.uniform(0.1, 2), gamma42=rng.uniform(0.1, 2),
            gamma23=rng.uniform(0.01, 1), lambda_pump=rng.uniform(0, 0.05),
        )
        for _ in range(306)
    ]


class TestSolveLinear:
    def test_identity(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert np.allclose(solve_linear(np.eye(5, dtype=complex), b), b, atol=1e-14)

    def test_two_by_two_against_hand_inverse(self):
        a = np.array([[1 + 1j, 2.0], [0.5j, 1 - 1j]], dtype=complex)
        b = np.array([1.0, 1j])
        x = solve_linear(a, b)
        assert np.allclose(a @ x, b, atol=1e-14)
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-13)

    def test_singular_matrix_detected(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(NumericError) as exc:
            solve_linear(a, np.ones(2, complex))
        assert exc.value.code == "SINGULAR"

    def test_empty_dynamics_is_singular(self):
        p = SystemParams()  # everything zero: only the trace row survives
        a = assemble(p)
        with pytest.raises(NumericError) as exc:
            solve_linear(a, RHS)
        assert exc.value.code == "SINGULAR"
        # the pivot threshold, not a LAPACK error, refuses the conserved
        # rho11 draws, some of which LAPACK would solve
        for p in conserved_rho11_draws():
            with pytest.raises(NumericError) as exc:
                steady_state(p)
            assert exc.value.code == "SINGULAR", p

    @pytest.mark.parametrize(
        "shape, rhs",
        [((2, 3), 2), ((3, 3), 2), ((3, 3), (3, 1))],
        ids=["not-square", "short-rhs", "rhs-matrix"],
    )
    def test_shape_mismatch_rejected(self, shape, rhs):
        with pytest.raises(ValueError, match="square with matching right-hand side"):
            solve_linear(np.ones(shape, complex), np.ones(rhs, complex))

    def test_agrees_with_numpy_on_random_systems(self):
        """LAPACK as an oracle only: sizes 1..16, eigenvalues clustered
        around a random point at distance 3 from 0, so every draw is
        well conditioned."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 17))
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = g / np.sqrt(2 * n) + 3 * np.exp(2j * np.pi * rng.uniform()) * np.eye(n)
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = solve_linear(a, b)
            want = np.linalg.solve(a, b)
            assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))

    def test_backward_error_inside_gate_margin(self):
        """One elimination, no refinement: the normwise backward error of
        each steady-state solve stays 10x inside BACKWARD_TOL, so a solver
        change that eats the gate's margin fails here before the gate
        starts refusing states."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = assemble(random_valid_params(rng))
            x = solve_linear(a, RHS)
            r = np.max(np.abs(a @ x - RHS))
            bound = np.max(np.sum(np.abs(a), axis=1)) * np.max(np.abs(x)) + 1.0
            assert r <= 1e-15 * bound


class TestAssemble:
    def test_probe_path_coherence_diagonal_coefficient(self):
        p = SystemParams(
            g41=0.3, g42=1.7, g_p=0.01, delta41=0.2, delta42=-0.4, delta_p=0.7,
            gamma41=1.0, gamma42=0.5, gamma23=0.2, gamma13=0.05, lambda_pump=0.03,
        )
        a = assemble(p)
        row, col = _index(1, 3), _index(1, 3)
        expected = -(
            coherence_damping(p, 1, 3)
            + 1j * p.delta41
            - 1j * p.delta42
            - 1j * p.delta_p
            + p.lambda_pump
        )
        assert a[row, col] == pytest.approx(expected)

    def test_trace_row(self, undriven_coupling):
        a = assemble(undriven_coupling)
        row = _index(4, 4)
        for i in range(1, 5):
            assert a[row, _index(i, i)] == 1.0
        assert RHS[row] == 1.0
        assert np.count_nonzero(a[row]) == 4

    def test_population_rows_balance_upper_state_flow(self):
        # Summing the three population equations must leave exactly the
        # flow through state |4>: its total decay plus the field-driven
        # exchange. No pump or probe term may survive, otherwise the
        # trace would not be conserved.
        p = SystemParams(
            g41=0.3, g42=1.7, g_p=0.2, delta41=0.2, delta42=-0.4, delta_p=0.7,
            gamma41=0.8, gamma42=0.5, gamma23=0.2, gamma13=0.05, lambda_pump=0.03,
        )
        a = assemble(p)
        s = a[_index(1, 1)] + a[_index(2, 2)] + a[_index(3, 3)]
        expected = np.zeros(16, dtype=complex)
        expected[_index(4, 4)] = 2 * (p.gamma41 + p.gamma42)
        expected[_index(1, 4)] = -1j * p.g41
        expected[_index(4, 1)] = 1j * p.g41
        expected[_index(2, 4)] = -1j * p.g42
        expected[_index(4, 2)] = 1j * p.g42
        assert np.allclose(s, expected, atol=1e-15)

    def test_undriven_coupling_config_well_posed(self, undriven_coupling):
        a = assemble(undriven_coupling)
        x = solve_linear(a, RHS)
        assert np.max(np.abs(a @ x - RHS)) <= 1e-10

    def test_matches_transcription(self, pumped_config):
        """T + theta.B against the walk over the equations of motion: bit
        for bit at the pumped configuration, and within 4 eps max|theta|
        per entry on random draws."""
        assert np.array_equal(assemble(pumped_config), _transcribe(pumped_config))
        rng = np.random.default_rng(31)
        eps = np.finfo(float).eps
        for _ in range(1000):
            p = random_valid_params(rng)
            theta = max(abs(getattr(p, name)) for name in PARAM_FIELDS)
            assert np.max(np.abs(assemble(p) - _transcribe(p))) <= 4 * eps * theta

    def test_equations_walked_only_to_build_basis(self, count_calls, pumped_config):
        """The equations of motion are walked once per basis matrix (the
        all-zero and the eleven unit-field sets) and never per solve."""
        _basis.cache_clear()
        walks = count_calls("equations_of_motion", steady_state_module)
        for lam in (4e-5, 1e-4, 1e-3):
            p = replace(pumped_config, lambda_pump=lam)
            steady_state_derivative(steady_state(p), "delta_p")
        assert len(walks) == 1 + len(PARAM_FIELDS)


class TestSteadyState:
    def test_everything_decays_to_ground(self):
        p = SystemParams(gamma41=1.0, gamma42=0.79, gamma23=0.14, gamma13=0.01)
        dm = steady_state(p)
        assert dm.population(3) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(dm.rho - np.diag([0, 0, 1, 0]))) <= 1e-12

    def test_trapped_configuration_rejected(self):
        p = SystemParams(g42=4.0, g_p=1e-4, gamma41=1.0, gamma42=0.79, gamma23=0.14)
        with pytest.raises(NumericError) as exc:
            steady_state(p)
        assert exc.value.code == "TRAPPED"

    def test_spike_peak_close_to_first_order_value(self, spike_config):
        # the residual ~1% is probe saturation of the narrow feature
        rho23 = steady_state(spike_config).element(2, 3)
        assert rho23.imag == pytest.approx(spike_config.g_p / 0.14, rel=1.5e-2)
        assert abs(rho23.real) < 1e-12

    def test_autler_townes_maxima(self, undriven_coupling):
        grid = np.linspace(0.5, 8.0, 376)
        absorption = [
            steady_state(replace(undriven_coupling, delta_p=d)).element(2, 3).imag
            for d in grid
        ]
        peak = grid[int(np.argmax(absorption))]
        assert peak == pytest.approx(4.0, rel=0.10)

    def test_invariants_and_residual_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            p = random_valid_params(rng)
            dm = steady_state(p)
            assert np.max(np.abs(dm.rho - dm.rho.conj().T)) <= 1e-10
            assert abs(dm.trace - 1.0) <= 1e-10
            pops = np.diag(dm.rho).real
            assert np.all(pops >= -1e-8) and np.all(pops <= 1 + 1e-8)
            assert walk_residual(p, dm) <= 1e-10

    def test_carries_the_matrix_it_solved(self, pumped_config):
        """The matrix that the state solves is assemble(p), bit for bit,
        read-only, and neither shown nor compared."""
        dm = steady_state(pumped_config)
        assert np.array_equal(dm.system_matrix, assemble(pumped_config))
        assert not dm.system_matrix.flags.writeable
        assert "system_matrix" not in repr(dm)
        assert "system_matrix" not in [f.name for f in fields(dm) if f.compare]

    def test_matches_superoperator_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = random_valid_params(rng)
            dm = steady_state(p)
            want = oracle.steady_state_and_derivative(p)[0]
            assert np.max(np.abs(dm.rho - want)) <= 1e-9

    def test_matches_superoperator_oracle_with_pump(self, pumped_config):
        dm = steady_state(pumped_config)
        want = oracle.steady_state_and_derivative(pumped_config)[0]
        assert np.max(np.abs(dm.rho - want)) <= 1e-9

    def test_response_linear_in_probe_away_from_feature(self, spike_config):
        for d in (0.01, 0.1, 1.0, 4.0):
            weak = steady_state(replace(spike_config, delta_p=d, g_p=1e-4))
            weaker = steady_state(replace(spike_config, delta_p=d, g_p=1e-5))
            r1 = weak.element(2, 3) / 1e-4
            r2 = weaker.element(2, 3) / 1e-5
            assert abs(r1 - r2) / abs(r2) <= 1e-3

    def test_feature_center_saturation_scales_quadratically(self, spike_config):
        # At the narrow-feature center the response saturates; the
        # deviation from the first-order limit must scale as g_p^2,
        # which is what "first-order response regime" means there.
        limit = probe_coherence(replace(spike_config, g_p=1.0), Method.ANALYTIC_FULL)
        devs = []
        for gp in (1e-4, 1e-5):
            r = steady_state(replace(spike_config, g_p=gp)).element(2, 3) / gp
            devs.append(abs(r - limit) / abs(limit))
        ratio = devs[0] / devs[1]
        assert 30 < ratio < 300  # ~100 for a clean quadratic

    def test_weak_probe_oracle_equivalence(self, spike_config):
        grid = np.linspace(-10, 10, 501)
        worst = 0.0
        for d in grid:
            p = replace(spike_config, delta_p=d)
            numeric = steady_state(p).element(2, 3)
            if abs(numeric) < 1e-10:
                continue
            full = probe_coherence(p, Method.ANALYTIC_FULL)
            worst = max(worst, abs(numeric - full) / abs(numeric))
        assert worst <= 1.1e-2  # saturation at the exact feature center is ~1%


class TestValidate:
    @pytest.mark.parametrize("where", [(0, 0), (1, 2), (3, 3)])
    def test_nan_entry_rejected(self, where):
        rho = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
        rho[where] = np.nan
        with pytest.raises(NumericError) as exc:
            DensityMatrix(rho=rho).validate()
        assert exc.value.code == "BAD_SOLUTION"

    @pytest.mark.parametrize(
        "shifts, message",
        [
            ({(0, 1): 1e-9}, "solution not Hermitian (defect 1.000e-09)"),
            ({(0, 0): 1e-9}, "trace deviates from 1 (defect 1.000e-09)"),
            ({(2, 2): 0.5, (3, 3): -0.5}, "population outside [0, 1] (defect 5.000e-01)"),
            # an imaginary population is a Hermiticity defect of twice its size
            ({(1, 1): 1e-9j}, "solution not Hermitian (defect 2.000e-09)"),
        ],
    )
    def test_message_names_check_and_defect(self, shifts, message):
        rho = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
        for entry, shift in shifts.items():
            rho[entry] += shift
        with pytest.raises(NumericError) as exc:
            DensityMatrix(rho=rho).validate()
        assert exc.value.code == "BAD_SOLUTION"
        assert str(exc.value) == message


class TestBackwardError:
    def test_perturbed_steady_state_rejected(self, monkeypatch, pumped_config):
        """A solution off by 1e-12 relative passes the state checks but
        not the backward-error gate."""
        exact = solve_linear

        def perturbed(matrix, rhs):
            return exact(matrix, rhs) * (1 + 1e-12)

        a = assemble(pumped_config)
        x = perturbed(a, RHS)
        DensityMatrix(rho=x.reshape(4, 4)).validate()
        with pytest.raises(NumericError, match="backward error"):
            DensityMatrix(rho=x.reshape(4, 4), system_matrix=a).validate()
        monkeypatch.setattr(steady_state_module, "solve_linear", perturbed)
        with pytest.raises(NumericError) as exc:
            steady_state(pumped_config)
        assert exc.value.code == "BAD_SOLUTION"
        assert "backward error" in str(exc.value)

    def test_perturbed_derivative_rejected(self, monkeypatch, pumped_config):
        """A derivative shifted by 1e-12 of its largest entry stays Hermitian
        and traceless to tolerance but fails the backward-error gate."""
        dm = steady_state(pumped_config)
        exact = np.linalg.solve

        def perturbed(a, b):
            x = exact(a, b)
            return x + 1e-12 * np.max(np.abs(x))

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        with pytest.raises(NumericError) as exc:
            steady_state_derivative(dm, "delta_p")
        assert exc.value.code == "BAD_SOLUTION"
        assert "backward error" in str(exc.value)


class TestValidStates:
    def test_mask_matches_validate(self):
        """The batched mask is True exactly where validate() passes, on
        steady states and on copies that break one invariant each."""
        rng = np.random.default_rng(20)
        states = []
        for _ in range(20):
            rho = steady_state(random_valid_params(rng)).rho
            nan = rho.copy()
            nan[1, 2] = np.nan
            trace = rho.copy()
            trace[0, 0] += 1e-9
            negative = rho.copy()
            negative[3, 3] += negative[0, 0].real + 1e-7
            negative[0, 0] = -1e-7
            skew = rho.copy()
            skew[0, 1] += 1e-9
            states += [rho, nan, trace, negative, skew]

        def passes(rho):
            try:
                DensityMatrix(rho=rho).validate()
            except NumericError:
                return False
            return True

        want = [passes(rho) for rho in states]
        mask = _gate(np.array(states).reshape(-1, 16))
        assert mask.tolist() == want
        assert sum(want) == 20


class TestDerivative:
    @pytest.mark.parametrize("wrt, h", [("delta_p", 1e-8), ("lambda_pump", 1e-9)])
    def test_matches_central_difference(self, pumped_config, wrt, h):
        p = replace(pumped_config, delta_p=1e-4)
        exact = steady_state_derivative(steady_state(p), wrt)
        value = getattr(p, wrt)
        plus = steady_state(replace(p, **{wrt: value + h})).rho
        minus = steady_state(replace(p, **{wrt: value - h})).rho
        central = (plus - minus) / (2 * h)
        assert np.max(np.abs(central - exact)) <= 1e-6 * np.max(np.abs(exact))

    def test_every_field_randomized(self):
        """Against a central difference of the linear system itself: the
        matrix is affine in every field, so the difference is exact up to
        the solves' rounding."""
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = random_valid_params(rng)
            dm = steady_state(p)
            for wrt in PARAM_FIELDS:
                exact = steady_state_derivative(dm, wrt)
                h = 1e-6 * max(1.0, abs(getattr(p, wrt)))
                plus = steady_state(replace(p, **{wrt: getattr(p, wrt) + h})).rho
                minus = steady_state(replace(p, **{wrt: getattr(p, wrt) - h})).rho
                central = (plus - minus) / (2 * h)
                scale = max(np.max(np.abs(exact)), 1e-12)
                assert np.max(np.abs(central - exact)) <= 1e-4 * scale, wrt

    def test_bare_state_matches_solved_state(self, pumped_config):
        """The derivative depends on the state's entries and matrix alone:
        a bare DensityMatrix with the same rho and assemble(p) gives
        exactly the same result."""
        rng = np.random.default_rng(3)
        for p in (pumped_config, random_valid_params(rng), random_valid_params(rng)):
            dm = steady_state(p)
            bare = DensityMatrix(rho=dm.rho.copy(), system_matrix=assemble(p))
            for wrt in PARAM_FIELDS:
                solved = steady_state_derivative(dm, wrt)
                assert np.array_equal(solved, steady_state_derivative(bare, wrt)), wrt

    def test_singular_system_rejected(self):
        p = SystemParams()  # everything zero: only the trace row survives
        rho = np.diag([0, 0, 1, 0]).astype(complex)
        bare = DensityMatrix(rho=rho, system_matrix=assemble(p))
        with pytest.raises(NumericError) as exc:
            steady_state_derivative(bare, "delta_p")
        assert exc.value.code == "SINGULAR"

    def test_state_without_matrix_rejected(self, pumped_config):
        bare = DensityMatrix(rho=steady_state(pumped_config).rho)
        with pytest.raises(ValueError, match="no system matrix"):
            steady_state_derivative(bare, "delta_p")

    def test_hermitian_and_traceless(self, pumped_config):
        d = steady_state_derivative(steady_state(pumped_config), "g42")
        assert np.max(np.abs(d - d.conj().T)) <= 1e-12 * np.max(np.abs(d))
        assert abs(np.trace(d)) <= 1e-12 * np.max(np.abs(d))

    def test_nan_state_rejected(self, pumped_config):
        rho = np.full((4, 4), np.nan, dtype=complex)
        bare = DensityMatrix(rho=rho, system_matrix=assemble(pumped_config))
        with pytest.raises(NumericError) as exc:
            steady_state_derivative(bare, "delta_p")
        assert exc.value.code == "BAD_SOLUTION"

    def test_unknown_field(self, pumped_config):
        # checked first, so a state without a matrix gets the same message
        for dm in (steady_state(pumped_config), DensityMatrix(rho=np.eye(4) / 4)):
            with pytest.raises(ValueError, match="^unknown parameter 'g43'$"):
                steady_state_derivative(dm, "g43")


class TestHintState:
    """The root finders' hint state: steady_state's state by LAPACK, under
    the same gate but without the pivot threshold."""

    def test_matches_steady_state(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            p = random_valid_params(rng)
            hint, dm = steady_state_module._hint_state(p), steady_state(p)
            assert np.max(np.abs(hint.rho - dm.rho)) <= 1e-13
            assert np.array_equal(hint.system_matrix, dm.system_matrix)
            assert not hint.system_matrix.flags.writeable

    def test_passes_the_gate_where_no_state_is_unique(self):
        # why every reported state keeps the pivot threshold: with rho11
        # conserved, LAPACK returns a state the gate accepts on some draws
        passed = 0
        for p in conserved_rho11_draws():
            try:
                steady_state_module._hint_state(p)
            except (NumericError, np.linalg.LinAlgError):
                continue
            passed += 1
        assert passed > 0


class TestResolvent:
    """The resolvent along the pump rate, which only the sweep builds."""

    def test_agreement_scale_takes_accepted_rows_only(self):
        agrees = steady_state_module._Resolvent.agrees
        chi = np.array([1e300, 1.0, 1.0 + 1e-13], dtype=complex)
        ok = np.array([False, True, True])
        assert agrees(chi, ok, 2, 1.0)
        # within 1e-12 of the refused row's |chi|, but not of the accepted ones
        assert not agrees(chi, ok, 2, 1.0 + 1e-11)
        # a refused far row is refused whatever its value
        for value in (1.0, np.nan, np.inf):
            far = np.array([1.0, 1.0, value], dtype=complex)
            assert not agrees(far, np.array([True, True, False]), 2, 1.0)

    def test_singular_base_raises_where_lapack_does(self):
        # rho11 conserved: the build raises wherever LAPACK finds A0 singular
        raised = 0
        for p in conserved_rho11_draws()[:50]:
            try:
                np.linalg.solve(assemble(p), RHS)
            except np.linalg.LinAlgError:
                raised += 1
                with pytest.raises(np.linalg.LinAlgError):
                    steady_state_module._Resolvent(p, "delta_p")
        assert raised > 0

    def test_trapped_base_raises_as_steady_state(self, spike_config):
        p = replace(spike_config, g41=0.0)
        with pytest.raises(NumericError) as exc:
            steady_state_module._Resolvent(p, "lambda_pump")
        assert exc.value.code == "TRAPPED"


class TestResidual:
    """The residual A x - b of a state, as the equation walk and as the
    assembled matrix give it."""

    def test_zero_for_solved_state(self, undriven_coupling):
        dm = steady_state(undriven_coupling)
        assert walk_residual(undriven_coupling, dm) <= 1e-10
        assert matrix_residual(dm.system_matrix, dm) <= 1e-10

    def test_large_for_maximally_mixed(self, undriven_coupling):
        dm = DensityMatrix(rho=np.eye(4, dtype=complex) / 4)
        assert walk_residual(undriven_coupling, dm) > 1e-2
        assert matrix_residual(assemble(undriven_coupling), dm) > 1e-2

    def test_matches_equation_walk(self):
        rng = np.random.default_rng(25)
        cases = [(p, steady_state(p)) for p in (random_valid_params(rng) for _ in range(25))]
        p = random_valid_params(rng)
        cases.append((p, DensityMatrix(rho=np.eye(4, dtype=complex) / 4)))
        for p, dm in cases:
            assert abs(matrix_residual(assemble(p), dm) - walk_residual(p, dm)) <= 1e-14
        assert walk_residual(*cases[-1]) > 1e-2

    def test_exactly_zero_for_ground_state_without_couplings(self):
        p = SystemParams()
        dm = DensityMatrix(rho=np.diag([0, 0, 1, 0]).astype(complex))
        assert walk_residual(p, dm) == 0.0
        assert matrix_residual(assemble(p), dm) == 0.0

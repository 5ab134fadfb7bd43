import importlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest
import workloads
from checks import parse_csv

from darkres import (
    Axis,
    ConfigError,
    MediumParams,
    Method,
    NumericError,
    Output,
    Spacing,
    SweepSpec,
    SweepTable,
    SystemParams,
    chi_at,
    dispersion_slope,
    group_index,
    parse_config,
    run_sweep,
    steady_state,
    write_csv,
)
from darkres import observables, sweep
from darkres.observables import _SEED_BRACKET_REL, _first_order_zero
from darkres.sweep import MAX_POINTS, spec_metadata
from test_steady_state import conserved_rho11_draws

steady_state_module = importlib.import_module("darkres.steady_state")


@pytest.fixture
def spectrum_spec(spike_config, mercury_medium):
    return SweepSpec(
        params=spike_config,
        medium=mercury_medium,
        axis=Axis.DELTA_P,
        start=-1.0,
        stop=1.0,
        points=21,
    )


class TestGrid:
    def test_linear_grid_exact(self, spectrum_spec):
        spec = replace(spectrum_spec, start=-10.0, stop=10.0, points=7)
        expected = [-10.0 + k * 20.0 / 6 for k in range(7)]
        assert spec.grid() == expected

    def test_log_grid_exact(self, spectrum_spec):
        spec = replace(
            spectrum_spec, start=1e-7, stop=1e-3, points=9, spacing=Spacing.LOG
        )
        la, lb = math.log10(1e-7), math.log10(1e-3)
        expected = [10.0 ** (la + k * (lb - la) / 8) for k in range(9)]
        assert spec.grid() == expected

    def test_endpoints(self, spectrum_spec):
        g = spectrum_spec.grid()
        assert g[0] == spectrum_spec.start and g[-1] == spectrum_spec.stop


class TestValidation:
    def test_single_point_rejected(self, spectrum_spec):
        with pytest.raises(ConfigError) as exc:
            replace(spectrum_spec, points=1).validate()
        assert exc.value.code == "RANGE_ERROR"

    def test_points_capped(self, spectrum_spec):
        replace(spectrum_spec, points=MAX_POINTS).validate()
        with pytest.raises(ConfigError) as exc:
            replace(spectrum_spec, points=MAX_POINTS + 1).validate()
        assert exc.value.code == "RANGE_ERROR"

    def test_reversed_range_rejected(self, spectrum_spec):
        with pytest.raises(ConfigError):
            replace(spectrum_spec, start=2.0, stop=1.0).validate()

    def test_log_needs_positive_start(self, spectrum_spec):
        with pytest.raises(ConfigError):
            replace(spectrum_spec, start=0.0, spacing=Spacing.LOG).validate()

    def test_group_index_output_needs_reference_rate(self, spectrum_spec):
        with pytest.raises(ConfigError):
            replace(spectrum_spec, outputs=(Output.NG,)).validate()

    @pytest.mark.parametrize(
        "axis, start, stop, spacing",
        [
            (Axis.LAMBDA, 0.0, math.inf, Spacing.LINEAR),
            (Axis.LAMBDA, 1e-6, math.inf, Spacing.LOG),
            (Axis.DELTA_P, -math.inf, 0.0, Spacing.LINEAR),
            (Axis.DELTA_P, math.nan, 1.0, Spacing.LINEAR),
            (Axis.DELTA_P, -1.0, math.nan, Spacing.LINEAR),
        ],
    )
    def test_nonfinite_ends_rejected(self, spectrum_spec, axis, start, stop, spacing):
        # grid() would give nan and inf axis values: start + 0 * inf is nan;
        # NaN also fails start < stop, so finiteness is checked first
        spec = replace(
            spectrum_spec, axis=axis, start=start, stop=stop, points=3, spacing=spacing
        )
        with pytest.raises(ConfigError) as exc:
            spec.validate()
        assert exc.value.code == "RANGE_ERROR"
        key = "stop" if math.isfinite(start) else "start"
        assert str(exc.value) == f"{key} must be finite"

    def test_repeated_output_rejected(self, spectrum_spec):
        spec = replace(spectrum_spec, outputs=(Output.CHI_RE, Output.CHI_IM, Output.CHI_RE))
        with pytest.raises(ConfigError) as exc:
            spec.validate()
        assert exc.value.code == "RANGE_ERROR"
        assert str(exc.value) == "output CHI_RE repeated"

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(axis=Axis.LAMBDA, start=-1e-6), "LAMBDA axis must be >= 0"),
            (dict(axis=Axis.G42, start=-1.0), "G42 axis must be >= 0"),
            (dict(outputs=()), "outputs must not be empty"),
        ],
        ids=["negative-pump", "negative-drive", "no-outputs"],
    )
    def test_negative_rate_axis_and_empty_outputs_rejected(self, spectrum_spec, changes, message):
        with pytest.raises(ConfigError) as exc:
            replace(spectrum_spec, **changes).validate()
        assert exc.value.code == "RANGE_ERROR"
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "start, stop, spacing",
        [
            pytest.param(-1e308, 1e308, Spacing.LINEAR, id="-1e+308-1e+308"),
            pytest.param(0.0, 1e308, Spacing.LINEAR, id="0.0-1e+308"),
            pytest.param(1.0, 1.7976931348623157e308, Spacing.LOG, id="LOG-1.0-max"),
        ],
    )
    def test_overflowing_linear_span_rejected(self, spectrum_spec, start, stop, spacing):
        # both ends are finite, but stop - start, or 2 * (stop - start) in
        # grid(), is inf; on the LOG grid the last exponent rounds up past
        # log10 of max float: the grid would hold nan or inf axis values
        spec = replace(spectrum_spec, start=start, stop=stop, points=3, spacing=spacing)
        with pytest.raises(ConfigError) as exc:
            spec.validate()
        assert exc.value.code == "RANGE_ERROR"
        assert "start" in str(exc.value) and "stop" in str(exc.value)

    @pytest.mark.parametrize(
        "start, stop, points, spacing",
        [(0.0, 1e308, 2, Spacing.LINEAR), (1e-300, 1e308, 3, Spacing.LOG)],
    )
    def test_widest_grids_accepted(self, spectrum_spec, start, stop, points, spacing):
        spec = replace(spectrum_spec, start=start, stop=stop, points=points, spacing=spacing)
        spec.validate()
        assert all(math.isfinite(x) for x in spec.grid())


class TestRunSweep:
    def test_two_point_degenerate_sweep(self, spectrum_spec):
        table = run_sweep(replace(spectrum_spec, points=2))
        assert len(table.rows) == 2
        assert table.columns == ["delta_p", "chi_re", "chi_im"]

    def test_rows_sorted_by_axis(self, spectrum_spec):
        table = run_sweep(spectrum_spec)
        axis = [row[0] for row in table.rows]
        assert axis == sorted(axis)

    def test_deterministic_across_runs_and_parallelism(self, spectrum_spec):
        a = run_sweep(spectrum_spec)
        b = run_sweep(spectrum_spec)
        assert a.rows == b.rows

    def test_populations_output(self, spectrum_spec):
        spec = replace(spectrum_spec, points=3, outputs=(Output.POPULATIONS,))
        table = run_sweep(spec)
        assert table.columns == ["delta_p", "rho11", "rho22", "rho33", "rho44"]
        for row in table.rows:
            assert sum(row[1:]) == pytest.approx(1.0, abs=1e-9)

    def test_zero_crossing_sweep_logs_subthreshold_failures(
        self, spike_config, mercury_medium
    ):
        # below the gain onset there is no zero crossing: those grid
        # points must be logged, not fatal
        spec = SweepSpec(
            params=spike_config,
            medium=mercury_medium,
            axis=Axis.LAMBDA,
            start=1e-6,
            stop=1e-4,
            points=7,
            spacing=Spacing.LOG,
            outputs=(Output.DELTA0,),
        )
        table = run_sweep(spec)
        assert len(table.rows) + len(table.failures) == 7
        assert len(table.failures) >= 1
        assert all(code == "NO_SIGN_CHANGE" for _, code in table.failures)
        assert all(x < 1.7e-5 for x, _ in table.failures)  # only below onset

    @pytest.mark.parametrize(
        "method", [Method.ANALYTIC_FULL, Method.ANALYTIC_LIMIT, Method.ANALYTIC_PUMP]
    )
    def test_closed_form_slope_and_group_index(self, method, pumped_config):
        m = MediumParams(gamma_si=1e7)
        spec = SweepSpec(
            params=pumped_config,
            medium=m,
            axis=Axis.DELTA_P,
            start=-3e-4,
            stop=3e-4,
            points=5,
            method=method,
            outputs=(Output.SLOPE, Output.NG),
        )
        table = run_sweep(spec)
        assert table.columns == ["delta_p", "slope", "slope_err", "ng"]
        assert table.failures == []
        assert [row[0] for row in table.rows] == spec.grid()
        for d, slope, err, ng in table.rows:
            assert err == 0.0
            assert slope == dispersion_slope(pumped_config, m, d, method)[0]
            assert ng == group_index(pumped_config, m, d, method)

    def test_pump_axis_crosses_gain(self, spike_config, mercury_medium):
        spec = SweepSpec(
            params=spike_config,
            medium=mercury_medium,
            axis=Axis.LAMBDA,
            start=1e-6,
            stop=1e-3,
            points=13,
            spacing=Spacing.LOG,
            outputs=(Output.CHI_IM,),
        )
        table = run_sweep(spec)
        ims = [row[1] for row in table.rows]
        assert ims[0] > 0 and ims[-1] < 0


class TestParseConfig:
    def test_minimal_config_fills_mercury_defaults(self):
        spec = parse_config("axis=DELTA_P\nstart=-2\nstop=2\npoints=5\n")
        assert spec.params.gamma41 == 1.0
        assert spec.params.gamma42 == 0.79
        assert spec.params.gamma23 == 0.14
        assert spec.params.gamma13 == 0.01
        assert spec.medium.number_density == pytest.approx(1e18)
        assert spec.medium.probe_wavelength == pytest.approx(253.7e-9)
        assert spec.points == 5

    def test_comments_and_blank_lines(self):
        text = "# full line comment\n\naxis = LAMBDA  # inline\nstart=1e-7\nstop=1e-3\npoints=4\nspacing=LOG\n"
        spec = parse_config(text)
        assert spec.axis is Axis.LAMBDA
        assert spec.spacing is Spacing.LOG

    def test_single_point_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("points=1\n")
        assert exc.value.code == "RANGE_ERROR"

    def test_log_from_zero_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("axis=LAMBDA\nspacing=LOG\nstart=0\nstop=1e-3\npoints=5\n")
        assert exc.value.code == "RANGE_ERROR"

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("g41=0.04\nbogus=1\n")
        assert exc.value.code == "UNKNOWN_KEY"
        assert "line 2" in str(exc.value)

    def test_malformed_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("g41 0.04\n")
        assert exc.value.code == "PARSE_ERROR"
        assert "line 1" in str(exc.value)

    def test_unparseable_value(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("g41=fast\n")
        assert exc.value.code == "PARSE_ERROR"

    def test_overrides_take_precedence(self):
        spec = parse_config("g41=0.04\n", overrides={"g41": "0.08"})
        assert spec.params.g41 == 0.08

    def test_method_spellings(self):
        for raw in ("analytic-full", "ANALYTIC_FULL", "Analytic_Full"):
            spec = parse_config(f"method={raw}\n")
            assert spec.method.value == "ANALYTIC_FULL"

    @pytest.mark.parametrize(
        "setting",
        [
            "N_per_cm3=0", "N_per_cm3=inf", "wavelength_nm=nan", "wavelength_nm=-1",
            "gamma23_over_gamma=1.5", "gamma_SI=inf", "gamma_SI=-1",
        ],
    )
    def test_medium_checked_at_parse(self, setting):
        with pytest.raises(ConfigError) as exc:
            parse_config(setting + "\n")
        assert exc.value.code == "RANGE_ERROR"

    def test_scaled_keys_parse_by_exact_decimal_shift(self):
        # 589.1 * 1e-9 is 589.1e-9 plus one ulp; the shift is exact
        medium = parse_config("wavelength_nm = 589.1\nN_per_cm3 = 3.3e11\n").medium
        assert medium.probe_wavelength == 589.1e-9
        assert medium.number_density == 3.3e17

    def test_outputs_list(self):
        spec = parse_config("outputs=CHI_IM, SLOPE\ngamma_SI=1e7\n")
        assert spec.outputs == (Output.CHI_IM, Output.SLOPE)


class TestWriteCsv:
    def test_empty_rows_header_and_metadata_only(self, spectrum_spec):
        table = SweepTable(
            columns=["delta_p", "chi_re"],
            rows=[],
            metadata={"g41": "0.04", "version": "0.1.0"},
            failures=[],
        )
        buf = io.StringIO()
        write_csv(table, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# g41 = 0.04"
        assert lines[-1] == "delta_p,chi_re"

    def test_round_trip_bitwise(self, spectrum_spec):
        table = run_sweep(replace(spectrum_spec, points=5))
        buf = io.StringIO()
        write_csv(table, buf)
        _, cols, rows = parse_csv(buf.getvalue())
        assert cols == table.columns
        assert rows == [list(row) for row in table.rows]

    def test_spectrum_columns(self, spectrum_spec):
        table = run_sweep(replace(spectrum_spec, points=3))
        buf = io.StringIO()
        write_csv(table, buf)
        header = [l for l in buf.getvalue().splitlines() if not l.startswith("#")][0]
        assert header == "delta_p,chi_re,chi_im"

    def test_failures_logged_as_comments(self, spike_config, mercury_medium):
        spec = SweepSpec(
            params=spike_config,
            medium=mercury_medium,
            axis=Axis.LAMBDA,
            start=1e-6,
            stop=4e-6,
            points=2,
            outputs=(Output.DELTA0,),
        )
        buf = io.StringIO()
        write_csv(run_sweep(spec), buf)
        assert "code=NO_SIGN_CHANGE" in buf.getvalue()

    def test_scaled_keys_round_trip_seeded_draws(self, spectrum_spec):
        # code-built values; today's text repr(value / 10**k) is kept where
        # it reads back, and the shifted shortest repr of the value is
        # written for the others (289 of these 1,000)
        rng = np.random.default_rng(2024)
        wavelengths = rng.uniform(100e-9, 1000e-9, 500).tolist()
        densities = (10.0 ** rng.uniform(12, 24, 500)).tolist()
        changed = 0
        for wavelength, density in zip(wavelengths, densities):
            medium = MediumParams(number_density=density, probe_wavelength=wavelength)
            metadata = spec_metadata(replace(spectrum_spec, medium=medium))
            config = "".join(
                f"{key} = {metadata[key]}\n" for key in ("wavelength_nm", "N_per_cm3")
            )
            assert parse_config(config).medium == medium
            for key, value, k in (("wavelength_nm", wavelength, -9), ("N_per_cm3", density, 6)):
                old = repr(value / 10.0**k)
                if sweep._scaled(old, k) == value:
                    assert metadata[key] == old
                else:
                    changed += 1
        assert changed > 0
        literal = replace(spectrum_spec, medium=MediumParams(probe_wavelength=589.1e-9))
        assert spec_metadata(literal)["wavelength_nm"] == "589.1"

    def test_numpy_field_values_round_trip(self, spectrum_spec):
        # a spec built in code with numpy scalars: their repr (np.float64(..))
        # is not config syntax, so the metadata writes plain numbers
        spec = replace(
            spectrum_spec,
            params=replace(
                spectrum_spec.params, g41=np.float64(0.04), lambda_pump=np.float64(4e-5)
            ),
            medium=MediumParams(gamma23_over_gamma=np.float64(0.3), gamma_si=np.float64(1e7)),
            start=np.float64(-2.0),
            stop=np.float64(0.1),
            points=np.int64(7),
        )
        metadata = spec_metadata(spec)
        assert (metadata["g41"], metadata["start"], metadata["points"]) == ("0.04", "-2.0", "7")
        config = "".join(
            f"{key} = {value}\n"
            for key, value in metadata.items()
            if key not in ("version", "timestamp")
        )
        assert parse_config(config) == spec

    def test_rows_at_seventeen_digits(self):
        # the float rows and the text-labelled rows both print every value
        # as f"{value:.17g}"
        tiny, big = 5e-324, 1.7976931348623157e308
        rows = [
            (0.0, -0.0, math.nan),
            (math.inf, -math.inf, tiny),
            (2.2250738585072014e-308, big, -big),
            (np.float64(0.1), 3, 1e-5),
            ("+", np.float64(-1.25), 0.5),
        ]
        buf = io.StringIO()
        write_csv(SweepTable(["a", "b", "c"], rows, {}, []), buf)
        lines = [",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) for row in rows]
        assert buf.getvalue() == "\n".join(["a,b,c"] + lines) + "\n"

    def test_io_error(self, spectrum_spec):
        table = run_sweep(replace(spectrum_spec, points=2))
        with pytest.raises(ConfigError) as exc:
            write_csv(table, "/nonexistent-dir/x.csv")
        assert exc.value.code == "IO_ERROR"

    def test_metadata_is_config_compatible(self, spectrum_spec):
        # the whole spec comes back, also with non-default axis, spacing,
        # method, outputs and medium
        log_lambda = parse_config(
            "axis=LAMBDA\nstart=1e-6\nstop=1e-3\nspacing=LOG\npoints=2\n"
            "method=analytic-full\noutputs=CHI_IM,SLOPE,NG\nN_per_cm3=3.3e11\n"
            "wavelength_nm=589.1\ngamma23_over_gamma=0.3\ngamma_SI=1e7\ng41=0.04\n"
        )
        # a medium built in code, whose wavelength has no text that a
        # multiply-by-1e-9 parse reads back
        literal = replace(
            spectrum_spec, points=2, medium=MediumParams(probe_wavelength=589.1e-9)
        )
        for spec in (replace(spectrum_spec, points=2), log_lambda, literal):
            buf = io.StringIO()
            write_csv(run_sweep(spec), buf)
            config_lines = [
                line[2:]
                for line in buf.getvalue().splitlines()
                if line.startswith("# ") and " = " in line
                and not line.startswith(("# version", "# timestamp"))
            ]
            assert parse_config("\n".join(config_lines)) == spec


def per_point(spec):
    """Rows and failures of the point-by-point route."""
    rows, failures = [], []
    for x in spec.grid():
        try:
            rows.append(sweep._evaluate_point(spec, x))
        except NumericError as exc:
            failures.append((x, exc.code))
    return rows, failures


def routed_and_table(spec, fallbacks):
    """The resolvent route's entries for ``spec`` and its ``run_sweep``
    table, checking the route's contract: one entry per grid point, and
    ``run_sweep`` evaluates on its own exactly the points whose entry is
    None (``fallbacks`` records the calls of ``_evaluate_point``)."""
    grid = spec.grid()
    routed = sweep._resolvent_sweep(spec, grid)
    assert len(routed) == len(grid)
    fallbacks.clear()
    table = run_sweep(spec)
    assert [args[1] for args in fallbacks] == [x for x, row in zip(grid, routed) if row is None]
    return routed, table


PUMPED = dict(g41=0.04, g42=4.0, g_p=1e-4, gamma13=0.0, lambda_pump=4e-5)
SPIKE = dict(g41=0.04, g42=4.0, g_p=1e-4, gamma13=0.0)
UNDRIVEN = dict(g41=0.0, g42=4.0, g_p=1e-4, gamma13=0.01)
CHI_POPS = (Output.CHI_RE, Output.CHI_IM, Output.POPULATIONS)


def resolvent_spec(fields, axis, start, stop, points=201, spacing=Spacing.LINEAR):
    return SweepSpec(
        params=SystemParams(gamma41=1.0, gamma42=0.79, gamma23=0.14, **fields),
        medium=MediumParams(),
        axis=axis,
        start=start,
        stop=stop,
        points=points,
        spacing=spacing,
        outputs=CHI_POPS,
    )


# sweeps whose refused resolvent must reproduce the per-point route
REFUSABLE = [
    resolvent_spec(PUMPED, Axis.DELTA_P, -1e-3, 1e-3, points=21),
    resolvent_spec(
        dict(g41=0.0, g42=4.0, g_p=1e-4, gamma13=0.0, delta42=1.0),
        Axis.LAMBDA, 0.0, 1e-3, points=11,
    ),
]


class TestResolventRoute:
    @pytest.mark.parametrize(
        "spec",
        [
            resolvent_spec(PUMPED, Axis.DELTA_P, -1e-3, 1e-3),
            resolvent_spec(PUMPED, Axis.DELTA_P, -10.0, 10.0),
            resolvent_spec(SPIKE, Axis.DELTA_P, -1e-3, 1e-3),
            resolvent_spec(SPIKE, Axis.DELTA_P, -10.0, 10.0),
            resolvent_spec(UNDRIVEN, Axis.DELTA_P, -1e-3, 1e-3),
            resolvent_spec(UNDRIVEN, Axis.DELTA_P, -10.0, 10.0),
            resolvent_spec(SPIKE, Axis.LAMBDA, 1e-8, 1e-1, spacing=Spacing.LOG),
            resolvent_spec(PUMPED, Axis.G42, 0.0, 20.0),
        ],
        ids=[
            "pumped-narrow", "pumped-wide", "spike-narrow", "spike-wide",
            "undriven-narrow", "undriven-wide", "log-lambda", "g42",
        ],
    )
    def test_agrees_with_per_point_solves(self, count_calls, spec):
        fallbacks = count_calls("_evaluate_point", sweep)
        table = run_sweep(spec)
        # a zero rate or coupling (here g42 = 0) is solved on its own
        zeros = [x for x in spec.grid() if x == 0.0 and spec.axis is not Axis.DELTA_P]
        assert [args[1] for args in fallbacks] == zeros
        assert table.failures == []
        assert [row[0] for row in table.rows] == spec.grid()
        field = sweep._AXIS_FIELD[spec.axis]
        states = [steady_state(replace(spec.params, **{field: x})) for x in spec.grid()]
        chis = [
            chi_at(replace(spec.params, **{field: x}), spec.medium) for x in spec.grid()
        ]
        scale = max(abs(chi) for chi in chis)
        for row, chi, dm in zip(table.rows, chis, states):
            assert abs(complex(row[1], row[2]) - chi) <= 1e-12 * scale
            for i, pop in enumerate(row[3:], start=1):
                assert abs(pop - dm.population(i)) <= 1e-12

    def test_trapped_point_alone_is_solved_on_its_own(self, count_calls):
        # g41 = gamma13 = 0 traps at lambda = 0 only
        spec = resolvent_spec(
            dict(g41=0.0, g42=4.0, g_p=1e-4, gamma13=0.0, delta42=1.0),
            Axis.LAMBDA, 0.0, 1e-3, points=101,
        )
        rows, failures = per_point(spec)
        fallbacks = count_calls("_evaluate_point", sweep)
        table = run_sweep(spec)
        assert [args[1] for args in fallbacks] == [0.0]
        assert table.failures == failures == [(0.0, "TRAPPED")]
        assert len(table.rows) == len(rows) == 100
        for got, want in zip(table.rows, rows):
            assert got[0] == want[0]
            assert max(abs(a - b) for a, b in zip(got[1:], want[1:])) <= 1e-12

    def test_trapped_base_takes_per_point_route(self, count_calls):
        # g41 = gamma13 = lambda = 0 traps every point of a DELTA_P sweep;
        # the resolvent refuses a trapped base, as steady_state does
        spec = resolvent_spec(
            dict(g41=0.0, g42=4.0, g_p=1e-4, gamma13=0.0), Axis.DELTA_P, -1e-3, 1e-3, points=5
        )
        fallbacks = count_calls("_evaluate_point", sweep)
        table = run_sweep(spec)
        assert len(fallbacks) == 5
        assert table.rows == []
        assert table.failures == [(x, "TRAPPED") for x in spec.grid()]

    def test_resonant_trap_solves_only_lambda_zero_on_its_own(self, count_calls):
        # at resonance the same trap leaves A0^-1 B defective, which the
        # Woodbury form never diagonalizes: only lambda = 0 is solved alone
        spec = resolvent_spec(
            dict(g41=0.0, g42=4.0, g_p=1e-4, gamma13=0.0),
            Axis.LAMBDA, 0.0, 1e-3, points=11,
        )
        rows, failures = per_point(spec)
        fallbacks = count_calls("_evaluate_point", sweep)
        table = run_sweep(spec)
        assert [args[1] for args in fallbacks] == [0.0]
        assert (table.rows, table.failures) == (rows, failures)

    @pytest.mark.parametrize(
        "fields, start, want_failures, want_fallbacks",
        [
            # rho_11 is conserved at g41 = gamma13 = 0, so g42 = 0 leaves a
            # consistent singular system that the resolvent would solve
            (dict(g41=0.0, gamma13=0.0, lambda_pump=4e-5), 0.0, [(0.0, "SINGULAR")], [0.0]),
            (dict(g41=0.04, gamma13=0.0, delta42=1.0), 1.0, [], []),
        ],
        ids=["conserved-rho11", "detuned-spike"],
    )
    def test_g42_sweeps_near_the_trap_match_per_point(
        self, count_calls, fields, start, want_failures, want_fallbacks
    ):
        # the eigen route refused both sweeps (A0^-1 B ill-conditioned)
        spec = resolvent_spec(dict(g_p=1e-4, **fields), Axis.G42, start, 10.0, points=51)
        rows, failures = per_point(spec)
        fallbacks = count_calls("_evaluate_point", sweep)
        table = run_sweep(spec)
        assert [args[1] for args in fallbacks] == want_fallbacks
        assert table.failures == failures == want_failures
        assert len(table.rows) == len(rows)
        scale = max(abs(complex(row[1], row[2])) for row in rows)
        for got, want in zip(table.rows, rows):
            assert got[0] == want[0]
            assert abs(complex(got[1], got[2]) - complex(want[1], want[2])) <= 1e-14 * scale
            assert max(abs(a - b) for a, b in zip(got[3:], want[3:])) <= 1e-14

    def test_seeded_sweeps_match_per_point(self, count_calls):
        # the bench's draws, general and pumped, every fourth at
        # g41 = gamma13 = 0, along four axes from the paper's scans
        rng = np.random.default_rng(32)
        axes = [
            (Axis.DELTA_P, -1e-3, 1e-3), (Axis.LAMBDA, 0.0, 1e-3),
            (Axis.G42, 0.0, 10.0), (Axis.DELTA_P, -5.0, 5.0),
        ]
        fallbacks = count_calls("_evaluate_point", sweep)
        for k in range(40):
            p = workloads._draw(rng, pumped=k % 2 == 1)
            if k % 4 == 0:
                p = replace(p, g41=0.0, gamma13=0.0)
            for axis, start, stop in axes:
                spec = replace(resolvent_spec({}, axis, start, stop, points=21), params=p)
                rows, failures = per_point(spec)
                fallbacks.clear()
                table = run_sweep(spec)
                assert all(args[1] == 0.0 for args in fallbacks)
                assert table.failures == failures
                assert [row[0] for row in table.rows] == [row[0] for row in rows]
                scale = max((abs(complex(*row[1:3])) for row in rows), default=0.0)
                for got, want in zip(table.rows, rows):
                    assert abs(complex(*got[1:3]) - complex(*want[1:3])) <= 1e-12 * scale
                    assert max(abs(a - b) for a, b in zip(got[3:], want[3:])) <= 1e-12

    def test_cross_check_refuses_sweeps_without_a_unique_state(self, count_calls):
        # where no steady state is unique, LAPACK's base state and the
        # resolvent's rows can pass the gate; only the far-end chi_at
        # raises SINGULAR and sends the sweep point by point, where every
        # point fails
        literals = [
            # |4> isolated: g41 = g42 = gamma41 = gamma42 = 0
            SystemParams(
                g_p=0.0796, delta42=3.27, gamma23=0.933, gamma13=0.0985, lambda_pump=0.00463
            ),
            # g42 = gamma42 = gamma13 = 0
            SystemParams(
                g41=0.358, g_p=0.0923, delta42=-0.121, gamma41=1.34, gamma23=0.433,
                lambda_pump=0.0437,
            ),
            # g41 = g42 = gamma23 = lambda = 0
            SystemParams(g_p=0.0293, gamma41=1.74, gamma42=1.82, gamma13=0.0969),
            # only g41, g_p and delta41 nonzero
            SystemParams(g41=0.103, g_p=0.013, delta41=1.46),
        ]
        checked = 0
        fallbacks = count_calls("_evaluate_point", sweep)
        for p in conserved_rho11_draws() + literals:
            spec = SweepSpec(
                params=p, medium=MediumParams(), axis=Axis.DELTA_P, start=-1e-3, stop=1e-3,
                points=21,
            )
            grid = spec.grid()
            try:
                resolvent = steady_state_module._Resolvent(replace(p, delta_p=grid[10]), "delta_p")
            except (NumericError, np.linalg.LinAlgError):
                assert p not in literals
                continue
            assert resolvent.states(np.array(grid))[1].any()
            rows, failures = per_point(spec)
            routed, table = routed_and_table(spec, fallbacks)
            assert routed == [None] * len(grid)
            assert table.rows == rows == []
            assert table.failures == failures == [(x, "SINGULAR") for x in grid]
            checked += 1
        assert checked >= 50 + len(literals)

    @pytest.mark.parametrize("spec", REFUSABLE, ids=["pumped", "trapped"])
    def test_failed_batched_solve_reproduces_per_point_route(
        self, monkeypatch, count_calls, spec
    ):
        rows, failures = per_point(spec)
        solve = np.linalg.solve

        def refuse_batched(a, b):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", refuse_batched)
        routed, table = routed_and_table(spec, count_calls("_evaluate_point", sweep))
        assert routed == [None] * spec.points
        assert (table.rows, table.failures) == (rows, failures)

    @pytest.mark.parametrize(
        "gate, value",
        [
            # the resolvent's backward-error gate reads the shared BACKWARD_TOL
            pytest.param("BACKWARD_TOL", -1.0, id="RESOLVENT_BACKWARD_TOL--1.0"),
            ("RESOLVENT_AGREEMENT_RTOL", -1.0),
        ],
    )
    @pytest.mark.parametrize("spec", REFUSABLE, ids=["pumped", "trapped"])
    def test_failed_gate_reproduces_per_point_route(
        self, refuse_resolvent_gate, count_calls, gate, value, spec
    ):
        rows, failures = per_point(spec)
        refuse_resolvent_gate(gate, value)
        _, table = routed_and_table(spec, count_calls("_evaluate_point", sweep))
        assert table.rows == rows
        assert table.failures == failures

    @pytest.mark.parametrize(
        "outputs, method",
        [
            ((Output.CHI_RE, Output.DELTA0), Method.NUMERIC),
            ((Output.CHI_IM, Output.SLOPE), Method.NUMERIC),
            ((Output.POPULATIONS, Output.NG), Method.NUMERIC),
            ((Output.CHI_RE, Output.CHI_IM), Method.ANALYTIC_FULL),
        ],
    )
    def test_other_sweeps_never_take_the_route(self, monkeypatch, outputs, method):
        def refuse(spec, grid):
            raise AssertionError("resolvent route taken")

        monkeypatch.setattr(sweep, "_resolvent_sweep", refuse)
        spec = SweepSpec(
            params=SystemParams(gamma41=1.0, gamma42=0.79, gamma23=0.14, **SPIKE),
            medium=MediumParams(gamma_si=1e7),
            axis=Axis.LAMBDA,
            start=1e-4,
            stop=3e-4,
            points=3,
            method=method,
            outputs=outputs,
        )
        assert len(run_sweep(spec).rows) == 3


def delta0_spec(fields, axis, start, stop, points=9, spacing=Spacing.LINEAR):
    spec = resolvent_spec(fields, axis, start, stop, points, spacing)
    return replace(spec, outputs=(Output.DELTA0,))


# the bench's pump scan at g42 = 4, from just above the gain threshold
PUMP_SCAN = delta0_spec(SPIKE, Axis.LAMBDA, 2e-5, 1e-3, spacing=Spacing.LOG)
# g41 = gamma13 = 0 traps at lambda = 0 only
TRAPPED_AT_ZERO = dict(g41=0.0, g42=4.0, g_p=1e-4, gamma13=0.0, delta42=1.0)


def seed_or_code(p, side):
    """The seed bracket at ``p`` from the steady_state solve of its
    probe-free state, or the error code of that solve or crossing."""
    try:
        d1 = abs(_first_order_zero(steady_state(replace(p, g_p=0.0, delta_p=0.0)), side))
    except NumericError as exc:
        return exc.code
    return (d1 * (1.0 - _SEED_BRACKET_REL), d1 * (1.0 + _SEED_BRACKET_REL))


def refuse_seed_state(monkeypatch, refusal):
    """Give the seed's hint, and no other, a probe-free matrix whose state
    the gate refuses (trace 1/2), or a singular one, on which LAPACK
    raises."""
    a = 2.0 * np.eye(16) if refusal == "gate" else np.zeros((16, 16))
    real = steady_state_module.assemble
    monkeypatch.setattr(
        steady_state_module, "assemble", lambda p: a.astype(complex) if p.g_p == 0 else real(p)
    )


class TestProbeFreeSeeds:
    @pytest.mark.parametrize(
        "spec",
        [
            PUMP_SCAN,
            delta0_spec(dict(SPIKE, g42=10.0), Axis.LAMBDA, 1e-4, 1e-2, spacing=Spacing.LOG),
            delta0_spec(dict(PUMPED, lambda_pump=4e-4), Axis.G42, 1.0, 12.0),
            delta0_spec(PUMPED, Axis.DELTA_P, -1e-3, 1e-3, points=5),
        ],
        ids=["lambda-g42-4", "lambda-g42-10", "g42", "delta-p"],
    )
    def test_seeds_match_direct_solves(self, spec):
        # the seed solves its probe-free state by LAPACK: its bracket is
        # the one from steady_state's state, and None where that raises
        found = 0
        for x in spec.grid():
            p = sweep._point_params(spec, x)
            for side in (+1, -1):
                want, got = seed_or_code(p, side), observables._seed_bracket(p, side, math.inf)
                if isinstance(want, str):
                    assert got is None, want
                else:
                    assert got == pytest.approx(want, rel=1e-12)
                    found += 1
        assert found >= spec.points

    def test_lambda_sweep_saves_one_solve_a_point(self, count_calls):
        # the seed is a LAPACK solve, so each point of the pump scan pays
        # one steady_state, the verification of its root, not two
        solves = count_calls("steady_state", observables, sweep)
        table = run_sweep(PUMP_SCAN)
        assert len(solves) == PUMP_SCAN.points
        rows, failures = per_point(PUMP_SCAN)
        assert table.failures == failures == []
        assert table.rows == rows

    @pytest.mark.parametrize("refusal", ["gate", "linalg", "trapped"])
    def test_refused_seeds_reproduce_the_decade_route(self, monkeypatch, refusal):
        spec = PUMP_SCAN
        if refusal == "trapped":
            # g41 = gamma13 = lambda = 0 traps every point
            spec = delta0_spec(dict(TRAPPED_AT_ZERO, delta42=0.0), Axis.G42, 1.0, 5.0, points=4)
        with monkeypatch.context() as mp:
            mp.setattr(observables, "_seed_bracket", lambda *args: None)
            unseeded = run_sweep(spec)
        if refusal != "trapped":
            refuse_seed_state(monkeypatch, refusal)
        for x in spec.grid():
            assert observables._seed_bracket(sweep._point_params(spec, x), +1, math.inf) is None
        table = run_sweep(spec)
        assert (table.rows, table.failures) == (unseeded.rows, unseeded.failures)

    def test_trapped_lambda_zero_solves_its_own_seed(self, count_calls):
        # every point solves its own probe-free state, and the seed's trap
        # test refuses lambda = 0 alone, before its solve
        spec = delta0_spec(TRAPPED_AT_ZERO, Axis.LAMBDA, 0.0, 1e-3, points=6)
        crossings = count_calls("_first_order_zero", observables)
        reached = []
        for x in spec.grid():
            observables._seed_bracket(sweep._point_params(spec, x), +1, math.inf)
            reached.append(len(crossings))
        assert reached == [0, 1, 2, 3, 4, 5]
        rows, failures = per_point(spec)
        table = run_sweep(spec)
        assert (table.rows, table.failures) == (rows, failures)


@pytest.mark.parametrize(
    "fields, found",
    [(PUMPED, True), (dict(PUMPED, lambda_pump=1e-6), False)],
    ids=["crossing", "below-threshold"],
)
def test_delta_p_sweep_runs_one_zero_search(count_calls, fields, found):
    """The zero search replaces delta_p, so a DELTA_P sweep runs it once
    and shares its root or its error code; the table is that of a search
    at each point."""
    spec = replace(
        delta0_spec(fields, Axis.DELTA_P, -1e-3, 1e-3, points=5),
        medium=MediumParams(gamma_si=1e8),
        outputs=(Output.DELTA0, Output.SLOPE, Output.NG),
    )
    rows, failures = [], []
    for x in spec.grid():
        p = sweep._point_params(spec, x)
        try:
            d0 = observables.find_absorption_zero_auto(p, spec.medium)
        except NumericError as exc:
            failures.append((x, exc.code))
            continue
        slope = dispersion_slope(p, spec.medium, d0)
        rows.append((x, d0, *slope, group_index(p, spec.medium, d0)))
    assert len(rows if found else failures) == spec.points
    searches = count_calls("find_absorption_zero_auto", sweep)
    table = run_sweep(spec)
    assert len(searches) == 1
    assert (table.rows, table.failures) == (rows, failures)


def test_zero_sweep_without_feature_scale_assembles_nothing(count_calls):
    # no pump and no coupling field: the automatic bracket raises before
    # the seed is solved or any resolvent is built
    spec = delta0_spec(dict(SPIKE, g42=0.0), Axis.DELTA_P, -1e-3, 1e-3, points=3)
    assembles = count_calls("assemble", steady_state_module)
    builds = count_calls("_Resolvent", sweep)
    table = run_sweep(spec)
    assert table.failures == [(x, "NO_SIGN_CHANGE") for x in spec.grid()]
    assert assembles == builds == []


def test_chi_and_populations_share_one_solve(count_calls, spike_config, mercury_medium):
    # SLOPE keeps the sweep per point; chi comes from the populations'
    # steady state, so each point costs 2 solves (chi and populations,
    # then the slope), not 3
    spec = SweepSpec(
        params=spike_config,
        medium=mercury_medium,
        axis=Axis.DELTA_P,
        start=-1e-3,
        stop=1e-3,
        points=5,
        outputs=(Output.CHI_RE, Output.POPULATIONS, Output.SLOPE),
    )
    rows, _ = per_point(spec)
    solves = count_calls("steady_state", sweep, observables)
    table = run_sweep(spec)
    assert len(solves) == 10
    assert table.rows == rows
    for row in table.rows:
        p = replace(spike_config, delta_p=row[0])
        assert row[1] == chi_at(p, mercury_medium).real
        dm = steady_state(p)
        assert row[2:6] == tuple(dm.population(i) for i in (1, 2, 3, 4))

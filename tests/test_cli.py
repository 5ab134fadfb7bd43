import importlib

import pytest
from checks import parse_csv

from darkres import Method, chi_at, find_gain_threshold, observables, run_sweep
from darkres.cli import main

steady_state_module = importlib.import_module("darkres.steady_state")

SPIKE_CONFIG = """
g41 = 0.04
g42 = 4
gp = 1e-4
gamma41 = 1
gamma42 = 0.79
gamma23 = 0.14
gamma13 = 0
start = -0.5
stop = 0.5
points = 11
"""

PUMPED_CONFIG = SPIKE_CONFIG + "lambda = 4e-5\n"

# The bench's 2001-point pumped spectrum.
BENCH_PUMPED_CONFIG = (
    "g41 = 0.04\ng42 = 4\ngp = 1e-4\ngamma13 = 0\nlambda = 4e-5\n"
    "start = -1e-3\nstop = 1e-3\npoints = 2001\n"
)


@pytest.fixture
def spike_file(tmp_path):
    path = tmp_path / "spike.cfg"
    path.write_text(SPIKE_CONFIG)
    return path


@pytest.fixture
def pumped_file(tmp_path):
    path = tmp_path / "pumped.cfg"
    path.write_text(PUMPED_CONFIG)
    return path


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_close_to_chi_at(spec, rows):
    """Each (delta_p, chi_re, chi_im) row within 1e-12 of the largest |chi|
    of a separate per-point chi_at."""
    chis = [chi_at(spec.params, spec.medium, d, Method.NUMERIC) for d, _, _ in rows]
    scale = max(abs(chi) for chi in chis)
    for (_, re_v, im_v), chi in zip(rows, chis):
        assert abs(complex(re_v, im_v) - chi) <= 1e-12 * scale


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 1
        assert "usage error" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(["spectrum", "--frob"], capsys)
        assert code == 1

    def test_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("points=1\n")
        code, _, err = run_cli(["spectrum", "--config", str(bad)], capsys)
        assert code == 2
        assert "RANGE_ERROR" in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_is_io_error(self, tmp_path, capsys, kind):
        path = tmp_path / "spike.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"g41 = 0.04  # \xb5 in Latin-1\n")
        code, out, err = run_cli(["spectrum", "--config", str(path)], capsys)
        assert code == 2
        assert err.startswith("error [IO_ERROR]: cannot read ")
        assert out == ""

    def test_bad_set_flag(self, capsys):
        code, _, err = run_cli(["spectrum", "--set", "g41"], capsys)
        assert code == 2
        assert "PARSE_ERROR" in err

    @pytest.mark.parametrize(
        "command, setting",
        [
            pytest.param("spectrum", "gamma41=nan", id="gamma41=nan"),
            pytest.param("spectrum", "g42=inf", id="g42=inf"),
            ("dressed", "g41=nan"),
            ("dressed", "g41=inf"),
            # dressed solves nothing, so only the config parse checks these
            ("dressed", "gamma41=nan"),
            ("dressed", "lambda=inf"),
        ],
    )
    def test_nonfinite_parameter_is_parameter_error(self, spike_file, capsys, command, setting):
        code, out, err = run_cli(
            [command, "--config", str(spike_file), "--set", setting], capsys
        )
        assert code == 2
        assert "NONFINITE_PARAMETER" in err
        assert out == ""

    def test_negative_rabi_is_parameter_error(self, spike_file, capsys):
        for setting in ("g42=-4", "gp=-1e-4"):
            code, out, err = run_cli(
                ["dressed", "--config", str(spike_file), "--set", setting], capsys
            )
            assert code == 2
            assert "NEGATIVE_RABI" in err
            assert out == ""

    @pytest.mark.parametrize(
        "setting, field", [("gamma13=-1", "gamma13"), ("lambda=-1e-5", "lambda_pump")]
    )
    def test_negative_rate_is_parameter_error(self, spike_file, capsys, setting, field):
        # the solvers' code and message, from the config parse
        code, out, err = run_cli(
            ["dressed", "--config", str(spike_file), "--set", setting], capsys
        )
        assert code == 2
        assert err == f"error [NEGATIVE_RATE]: {field} must be >= 0\n"
        assert out == ""

    @pytest.mark.parametrize(
        "command, settings",
        [
            ("sweep", ["axis=LAMBDA", "start=0", "stop=inf", "points=3"]),
            ("dressed", ["gamma_SI=inf"]),
        ],
    )
    def test_nonfinite_config_value_is_range_error(self, spike_file, capsys, command, settings):
        args = [command, "--config", str(spike_file)]
        for setting in settings:
            args += ["--set", setting]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert "RANGE_ERROR" in err
        assert out == ""

    def test_nan_start_is_range_error(self, capsys):
        code, out, err = run_cli(["spectrum", "--set", "start=nan"], capsys)
        assert code == 2
        assert "start must be finite" in err
        assert out == ""

    def test_repeated_output_is_range_error(self, capsys):
        for setting, message in (
            ("outputs=CHI_RE,CHI_RE", "CHI_RE"), ("outputs=", "outputs must not be empty"),
        ):
            code, out, err = run_cli(["sweep", "--set", setting], capsys)
            assert code == 2
            assert "RANGE_ERROR" in err and message in err
            assert out == ""

    def test_overflowing_linear_span_is_range_error(self, capsys):
        # both ends finite; stop - start is inf, or the LOG grid's last
        # point overflows
        for ends in (
            ["--set", "start=-1e308", "--set", "stop=1e308"],
            ["--set", "axis=LAMBDA", "--set", "spacing=LOG",
             "--set", "start=1", "--set", "stop=1.7976931348623157e308"],
        ):
            code, out, err = run_cli(["sweep", *ends, "--set", "points=3"], capsys)
            assert code == 2
            assert "RANGE_ERROR" in err
            assert out == ""

    def test_numeric_error_without_pump(self, spike_file, capsys):
        code, _, err = run_cli(["zero", "--config", str(spike_file)], capsys)
        assert code == 3
        assert "NO_SIGN_CHANGE" in err

    def test_unverified_zero_is_numeric_error(self, pumped_file, capsys, monkeypatch):
        # no |chi''| passes a negative verification bound
        monkeypatch.setattr(observables, "ZERO_IM_TOL", -1.0)
        code, out, err = run_cli(["zero", "--config", str(pumped_file)], capsys)
        assert code == 3
        assert "NO_CONVERGENCE" in err and "did not verify below tolerance" in err
        assert out == ""


class TestSpectrum:
    def test_matches_library_exactly(self, spike_file, capsys, tmp_path):
        out = tmp_path / "spec.csv"
        code, _, _ = run_cli(
            ["spectrum", "--config", str(spike_file), "--out", str(out)], capsys
        )
        assert code == 0
        _, cols, rows = parse_csv(out.read_text())
        assert cols == ["delta_p", "chi_re", "chi_im"]
        assert len(rows) == 11
        from darkres import parse_config

        spec = parse_config(SPIKE_CONFIG)
        assert rows == [list(row) for row in run_sweep(spec).rows]
        assert_close_to_chi_at(spec, rows)

    def test_stdout_when_no_out(self, spike_file, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--config", str(spike_file), "--set", "points=3"], capsys
        )
        assert code == 0
        assert out.splitlines()[-1].count(",") == 2
        assert "# g41 = 0.04" in out

    def test_jobs_flag_is_usage_error(self, spike_file, capsys):
        code, out, err = run_cli(
            ["spectrum", "--config", str(spike_file), "--jobs", "4"], capsys
        )
        assert code == 1
        assert out == ""
        assert "usage error" in err


class TestZeroAndThreshold:
    def test_zero_prints_both_crossings(self, pumped_file, capsys):
        code, out, _ = run_cli(["zero", "--config", str(pumped_file)], capsys)
        assert code == 0
        _, cols, rows = parse_csv(out)
        assert cols == ["delta0"]
        values = sorted(v for (v,) in rows)
        assert values[0] == pytest.approx(-2.624e-4, rel=1e-3)
        assert values[1] == pytest.approx(+2.624e-4, rel=1e-3)

    def test_zero_solve_budget(self, pumped_file, capsys, count_calls):
        # per side the verification of the root, which also cross-checks
        # the resolvent that gives both ends and the iterates; each side's
        # seed state is a LAPACK solve, not a steady_state
        import darkres
        from darkres import sweep

        solves = count_calls("steady_state", darkres, observables, sweep)
        code, _, _ = run_cli(["zero", "--config", str(pumped_file)], capsys)
        assert code == 0
        assert len(solves) <= 2

    def test_zero_without_feature_scale_solves_nothing(self, capsys, count_calls):
        # no pump and no coupling field: the automatic bracket raises
        # before the seed state is solved or assembled
        import darkres
        from darkres import sweep

        solves = count_calls("steady_state", darkres, observables, sweep)
        assembles = count_calls("assemble", darkres, steady_state_module)
        code, out, err = run_cli(["zero", "--set", "g42=0", "--set", "lambda=0"], capsys)
        assert code == 3
        assert err == (
            "error [NO_SIGN_CHANGE]: no vanishing-absorption detuning in the scanned brackets\n"
        )
        assert out == ""
        assert solves == assembles == []

    def test_threshold(self, spike_file, capsys):
        code, out, _ = run_cli(["threshold", "--config", str(spike_file)], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        star = rows[0][0]
        from darkres import parse_config

        spec = parse_config(SPIKE_CONFIG)
        direct = find_gain_threshold(spec.params, spec.medium, (1e-7, 1e-2))
        assert star == direct

    def test_threshold_uses_lambda_axis_range(self, spike_file, capsys):
        code, out, _ = run_cli(
            [
                "threshold", "--config", str(spike_file),
                "--set", "axis=LAMBDA", "--set", "start=1e-6",
                "--set", "stop=1e-4", "--set", "spacing=LOG",
            ],
            capsys,
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0][0] == pytest.approx(1.644e-5, rel=1e-2)


class TestDressed:
    def test_energies_and_amplitudes(self, spike_file, capsys):
        code, out, _ = run_cli(["dressed", "--config", str(spike_file)], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "state,energy,amp1,amp2,amp4"
        rows = {l.split(",")[0]: [float(t) for t in l.split(",")[1:]] for l in lines[1:]}
        assert rows["0"][0] == 0.0
        assert rows["+"][0] == pytest.approx(4.000199995, abs=1e-9)
        assert rows["-"][0] == pytest.approx(-4.000199995, abs=1e-9)
        assert rows["0"][2] == pytest.approx(0.0099995, rel=1e-4)


class TestCompare:
    def test_full_form_agreement_reported(self, spike_file, capsys):
        code, out, _ = run_cli(
            [
                "compare", "--config", str(spike_file),
                "--method", "analytic-full", "--set", "points=40",
                "--set", "start=-5", "--set", "stop=5",
            ],
            capsys,
        )
        assert code == 0
        meta = dict(
            l[2:].split(" = ", 1) for l in out.splitlines()
            if l.startswith("# ") and " = " in l
        )
        assert meta["analytic_method"] == "ANALYTIC_FULL"
        assert float(meta["max_rel_diff"]) <= 1e-2
        _, cols, rows = parse_csv(out)
        assert cols[-1] == "rel_diff"
        assert len(rows) == 40

    def test_pump_points_that_fail_are_logged(self, spike_file, capsys):
        # pump form is undefined at zero detuning when the pump is off:
        # that grid point must appear as a failure comment, not abort
        code, out, _ = run_cli(
            [
                "compare", "--config", str(spike_file),
                "--method", "analytic-pump", "--set", "points=3",
                "--set", "start=-1e-4", "--set", "stop=1e-4",
            ],
            capsys,
        )
        assert code == 0
        assert "code=DIVISION_DEGENERATE" in out
        _, _, rows = parse_csv(out)
        assert len(rows) == 2

    def test_numeric_columns_are_the_spectrum(self, tmp_path, capsys, count_calls):
        # the numeric columns come from one sweep over the grid, not one
        # solve per point: the same rows as `darkres spectrum`
        from darkres import observables, sweep

        cfg = tmp_path / "bench.cfg"
        cfg.write_text(BENCH_PUMPED_CONFIG)
        code, spectrum, _ = run_cli(["spectrum", "--config", str(cfg)], capsys)
        assert code == 0
        solves = count_calls("steady_state", sweep, observables)
        code, compare, _ = run_cli(["compare", "--config", str(cfg)], capsys)
        assert code == 0
        _, _, want = parse_csv(spectrum)
        _, _, rows = parse_csv(compare)
        assert len(rows) == 2001
        assert [row[:3] for row in rows] == want
        assert len(solves) <= 3


def test_cli_values_match_library(pumped_file, capsys):
    # thin-adapter property: the CLI must reproduce the library's sweep
    # bit for bit; the sweep itself agrees with per-point chi_at to 1e-12
    # of the largest |chi| (the resolvent route is not bit-equal to it)
    code, out, _ = run_cli(
        ["spectrum", "--config", str(pumped_file), "--set", "points=5"], capsys
    )
    assert code == 0
    from darkres import parse_config

    spec = parse_config(PUMPED_CONFIG, overrides={"points": "5"})
    _, _, rows = parse_csv(out)
    assert rows == [list(row) for row in run_sweep(spec).rows]
    assert_close_to_chi_at(spec, rows)


def test_bench_spectrum_takes_the_resolvent_route(tmp_path, capsys, count_calls):
    # the 2001-point pumped spectrum costs one base solve plus the chi_at
    # cross-check, not one solve per point; the cross-check keeps chi_at
    # on the path
    from darkres import observables, sweep

    solves = count_calls("steady_state", sweep, observables)
    chis = count_calls("chi_at", sweep)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_PUMPED_CONFIG)
    out = tmp_path / "spectrum.csv"
    code, _, _ = run_cli(["spectrum", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0
    _, _, rows = parse_csv(out.read_text())
    assert len(rows) == 2001
    assert len(solves) <= 3
    assert len(chis) >= 1

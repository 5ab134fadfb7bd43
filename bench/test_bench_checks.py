"""The benchmark's checkers accept darkres output and reject perturbed
output; the tracer reaches every binding site and fails on silent layers."""

from dataclasses import replace

import pytest

import darkres
import checks
import oracle
import tracer as tracing
import workloads
from darkres import MediumParams, chi_at, cli, observables, parse_config

SPECTRUM_POINTS = 201


@pytest.fixture(scope="module")
def spectrum(tmp_path_factory):
    """A 201-point pumped spectrum from the CLI, with oracle values at
    every tenth row."""
    work = tmp_path_factory.mktemp("spectrum")
    cfg, out = work / "pumped.cfg", work / "spectrum.csv"
    cfg.write_text(workloads.SPECTRUM_CONFIG, encoding="utf-8")
    argv = ["spectrum", "--config", str(cfg), "--out", str(out),
            "--set", f"points={SPECTRUM_POINTS}"]
    assert cli.main(argv) == 0
    spec = parse_config(workloads.SPECTRUM_CONFIG, {"points": str(SPECTRUM_POINTS)})
    grid = spec.grid()
    sample = list(range(0, SPECTRUM_POINTS, 10))
    reference = [oracle.chi(replace(spec.params, delta_p=grid[k]), spec.medium) for k in sample]
    return out.read_text(encoding="utf-8"), sample, reference


def _check_spectrum(text, spectrum):
    _, sample, reference = spectrum
    return checks.check_spectrum(text, SPECTRUM_POINTS, sample, reference)


def _rewrite_rows(text, fn):
    lines = text.splitlines()
    header = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    rows = [fn([float(tok) for tok in line.split(",")]) for line in lines[header + 1 :]]
    body = [",".join(repr(v) for v in row) for row in rows]
    return "\n".join(lines[: header + 1] + body) + "\n"


def test_spectrum_accepted(spectrum):
    assert _check_spectrum(spectrum[0], spectrum) == []


def test_spectrum_rejects_scaled_chi(spectrum):
    scaled = _rewrite_rows(spectrum[0], lambda r: [r[0], r[1] * 1.001, r[2] * 1.001])
    assert any("oracle" in p for p in _check_spectrum(scaled, spectrum))


def test_spectrum_rejects_broken_parity(spectrum):
    shifted = _rewrite_rows(spectrum[0], lambda r: [r[0], r[1], r[2] + 1e-6 * r[0]])
    assert any("not even" in p for p in _check_spectrum(shifted, spectrum))


def test_spectrum_rejects_failed_points(spectrum):
    text = spectrum[0].replace("delta_p,", "# failed: 0 code=SINGULAR\ndelta_p,", 1)
    assert any("failed" in p for p in _check_spectrum(text, spectrum))


@pytest.fixture(scope="module")
def pump_point():
    """One DELTA0,SLOPE,NG row computed by darkres at g42 = 4, lambda = 1e-4."""
    spec = parse_config(workloads.PUMP_SCAN_CONFIG)
    p = replace(spec.params, lambda_pump=1e-4)
    zero = observables.find_absorption_zero_auto(p, spec.medium)
    slope, err = observables.dispersion_slope(p, spec.medium, zero)
    ng = observables.group_index(p, spec.medium, zero)
    return spec, (1e-4, zero, slope, err, ng)


def _check_row(pump_point, row):
    spec, _ = pump_point
    return checks.check_pump_sweep(spec.params, spec.medium, checks.SWEEP_COLUMNS, [row])


def test_pump_row_accepted(pump_point):
    assert _check_row(pump_point, pump_point[1]) == []


def test_pump_row_rejects_shifted_zero(pump_point):
    lam, zero, slope, err, ng = pump_point[1]
    problems = _check_row(pump_point, (lam, zero * 1.01, slope, err, ng))
    assert any("is not zero" in p for p in problems)


def test_pump_row_rejects_wrong_slope_sign(pump_point):
    lam, zero, slope, err, ng = pump_point[1]
    problems = _check_row(pump_point, (lam, zero, -slope, err, ng))
    assert any("slope" in p for p in problems)


def test_threshold_sign_flip():
    spec = parse_config(workloads.PUMP_SCAN_CONFIG)
    star = observables.find_gain_threshold(spec.params, spec.medium, workloads.THRESHOLD_RANGE)
    assert checks.check_threshold(spec.params, spec.medium, star) == []
    assert checks.check_threshold(spec.params, spec.medium, star * 1.01) != []


def test_random_state_chi():
    spec = parse_config(workloads.SPECTRUM_CONFIG)
    p = replace(spec.params, delta_p=3e-5)
    want = oracle.chi(p, MediumParams())
    chi = chi_at(p, MediumParams())
    assert checks.check_chi(chi, want) == []
    assert checks.check_chi(chi * 1.001, want) != []


def test_tracer_wraps_every_binding_site():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spec = parse_config(workloads.SPECTRUM_CONFIG)
        darkres.chi_at(spec.params, spec.medium)
        observables.chi_at(spec.params, spec.medium)
        tracer.require_calls(["observables.chi_at", "steady_state.solve_linear"])
        with pytest.raises(RuntimeError, match="no calls"):
            tracer.require_calls(["sweep.run_sweep"])
    finally:
        tracer.uninstall()
    assert tracer.stats["observables.chi_at"].calls == 2
    assert tracer.stats["steady_state.steady_state"].calls == 2
    assert not hasattr(observables.chi_at, "__wrapped__")


def test_metric_names_match_benchmark_json():
    import json
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    traced = tracing.layer_metrics(tracing.Tracer(), passes=1, overhead_per_call=0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in traced.items()
    }

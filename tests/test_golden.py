"""Reference outputs written by ``tests/data/make_golden.py``: the pumped
spectrum, the g42 = 4/7/10 pump sweeps and thresholds, and chi at seeded
random draws, each checked per column at the tolerances the generator
states and justifies."""

import json
from pathlib import Path

import numpy as np
import pytest

from darkres import MediumParams, SystemParams, chi_at, find_gain_threshold, parse_config, run_sweep

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = json.loads((DATA / "golden.json").read_text(encoding="utf-8"))
TOL = GOLDEN["tolerances"]

PUMP_CONFIG = GOLDEN["pump_config"]
THRESHOLD_RANGE = tuple(GOLDEN["threshold_range"])


def assert_relative(got, want, rtol, name):
    got, want = np.asarray(got), np.asarray(want)
    worst = np.max(np.abs(got - want) / np.abs(want))
    assert worst <= rtol, f"{name}: relative deviation {worst:.3e}"


def test_pumped_spectrum():
    want = GOLDEN["spectrum"]
    table = run_sweep(parse_config(want["config"]))
    assert table.columns == want["columns"] and not table.failures
    got, ref = np.array(table.rows), np.array(want["rows"])
    assert np.array_equal(got[:, 0], ref[:, 0])
    chi, chi_ref = got[:, 1] + 1j * got[:, 2], ref[:, 1] + 1j * ref[:, 2]
    assert np.max(np.abs(chi - chi_ref)) <= TOL["chi"] * np.max(np.abs(chi_ref))


@pytest.mark.parametrize("drive", GOLDEN["pump_drives"], ids=lambda d: f"g42={d['g42']:g}")
def test_pump_threshold_and_sweep(drive):
    overrides = {"g42": repr(drive["g42"]), "start": repr(drive["start"])}
    spec = parse_config(PUMP_CONFIG, overrides)
    star = find_gain_threshold(spec.params, spec.medium, THRESHOLD_RANGE)
    assert_relative(star, drive["lambda_star"], TOL["lambda_star"], "lambda*")

    table = run_sweep(spec)
    assert table.columns == drive["columns"] and not table.failures
    got, ref = np.array(table.rows), np.array(drive["rows"])
    col = {name: k for k, name in enumerate(table.columns)}
    assert np.array_equal(got[:, col["lambda"]], ref[:, col["lambda"]])
    assert np.all(got[:, col["slope_err"]] == 0.0)
    for name in ("delta0", "slope", "ng"):
        assert_relative(got[:, col[name]], ref[:, col[name]], TOL[name], name)
    pops = [col[f"rho{i}{i}"] for i in (1, 2, 3, 4)]
    assert np.max(np.abs(got[:, pops] - ref[:, pops])) <= TOL["populations"]


def test_random_chi():
    want = GOLDEN["random"]
    medium = MediumParams()
    chi = np.array([chi_at(SystemParams(*fields), medium) for fields in want["params"]])
    ref = np.array([complex(re, im) for re, im in want["chi"]])
    assert np.max(np.abs(chi - ref)) <= TOL["chi"] * np.max(np.abs(ref))

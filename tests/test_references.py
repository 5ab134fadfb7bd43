"""The root finders against roots of the exact model written by
``tests/data/make_references.py`` from ``tests/exact_oracle.py`` alone:
the pumped delta0 on both sides and the gain threshold lambda* for
g42 = 4, 7 and 10.  Each test prints its gap."""

import json
from pathlib import Path

import pytest

from darkres import MediumParams, SystemParams, find_absorption_zero_auto, find_gain_threshold
from darkres.observables import THRESHOLD_REL_TOL, ZERO_REL_TOL

DATA = Path(__file__).resolve().parent / "data"
REFERENCES = json.loads((DATA / "references.json").read_text(encoding="utf-8"))
MEDIUM = MediumParams()


def gap(name, got, want, tol):
    """Print and return the relative gap of ``got`` from ``want``."""
    rel = abs(got - want) / abs(want)
    print(f"{name}: {got!r} against reference {want!r}, relative gap {rel:.2e} (tol {tol:.0e})")
    return rel


@pytest.mark.parametrize("side", [+1, -1])
def test_zero_matches_exact_reference(side):
    pumped = REFERENCES["pumped"]
    want = pumped["delta0"][str(side)]["value"]
    got = find_absorption_zero_auto(SystemParams(**pumped["params"]), MEDIUM, side)
    assert gap(f"delta0 side {side:+d}", got, want, ZERO_REL_TOL) <= ZERO_REL_TOL


@pytest.mark.parametrize(
    "drive", REFERENCES["threshold"]["drives"], ids=lambda drive: f"g42-{drive['g42']:g}"
)
def test_threshold_matches_exact_reference(drive):
    threshold = REFERENCES["threshold"]
    p = SystemParams(**dict(threshold["params"], g42=drive["g42"]))
    got = find_gain_threshold(p, MEDIUM, tuple(threshold["range"]))
    name = f"lambda* g42 = {drive['g42']:g}"
    assert gap(name, got, drive["value"], THRESHOLD_REL_TOL) <= THRESHOLD_REL_TOL

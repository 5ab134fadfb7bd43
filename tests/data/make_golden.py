"""Write ``golden.json``: reference outputs that ``tests/test_golden.py``
checks every later version of the solver against.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_golden.py

The file holds, each as computed by the solver that ran this script:

- the pumped spectrum (chi' and chi'') at 201 detunings over +-1e-3;
- for the drives g42 = 4, 7 and 10, the gain threshold lambda* over
  (1e-8, 1e-2) and a 5-point LOG LAMBDA sweep from just above it to 1e-3
  with DELTA0, SLOPE, NG and POPULATIONS;
- chi at 50 seeded random well-posed parameter sets, with the parameters.

Tolerances, per column, as ``TOLERANCES`` states them for the test:

- chi (spectrum and random draws): 1e-13 of the largest |chi| of its set.
  A change that only reorders the sums of the system matrix moves entries
  by an ulp and chi by a few 1e-16 of max|chi|.
- delta0, slope and NG: 1e-10 relative.  Each is a smooth function of chi
  values read at a Newton iterate, so reordered sums move it by the same
  few 1e-16 times an O(1) conditioning.
- lambda*: 1e-10 relative.  The finder returns its last Newton iterate,
  a smooth function of the chi values it read, so reordered sums move it
  at the level of those values.  A different iteration path (one step
  more or fewer, or a bisection step in place of a Newton one) moves it
  by the size of a step, at least ~(1e-3)^2 = 1e-6 relative near the
  stopping test, and still fails the check.
- populations: 1e-13 absolute; they are bounded by 1, as chi is by its
  maximum.
"""

from __future__ import annotations

import json
from dataclasses import astuple
from pathlib import Path

import numpy as np

from darkres import MediumParams, SystemParams, chi_at, find_gain_threshold, parse_config, run_sweep

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

SPECTRUM_CONFIG = """\
g41 = 0.04
g42 = 4
gp = 1e-4
gamma13 = 0
lambda = 4e-5
start = -1e-3
stop = 1e-3
points = 201
"""

PUMP_CONFIG = """\
g41 = 0.04
gp = 1e-4
gamma13 = 0
gamma_SI = 1e7
axis = LAMBDA
spacing = LOG
stop = 1e-3
points = 5
outputs = DELTA0,SLOPE,NG,POPULATIONS
"""
PUMP_DRIVES = (4.0, 7.0, 10.0)
THRESHOLD_RANGE = (1e-8, 1e-2)
# Sweep start as a multiple of lambda*, rounded to three digits so the
# sweep spec does not depend on lambda*'s last digits.
START_FACTOR = 1.05

RANDOM_SEED = 1111
RANDOM_DRAWS = 50

TOLERANCES = {
    "chi": 1e-13,  # of max|chi| over the set
    "delta0": 1e-10,  # relative
    "slope": 1e-10,  # relative
    "ng": 1e-10,  # relative
    "lambda_star": 1e-10,  # relative
    "populations": 1e-13,  # absolute
}


def random_params(rng: np.random.Generator) -> SystemParams:
    """Well-posed draw: 1->3 decay always reconnects the shelving state."""
    return SystemParams(
        g41=rng.uniform(0, 2), g42=rng.uniform(0.1, 5), g_p=rng.uniform(1e-5, 0.1),
        delta41=rng.uniform(-5, 5), delta42=rng.uniform(-5, 5), delta_p=rng.uniform(-5, 5),
        gamma41=rng.uniform(0.1, 2), gamma42=rng.uniform(0.1, 2), gamma23=rng.uniform(0.01, 1),
        gamma13=rng.uniform(1e-3, 0.1), lambda_pump=rng.uniform(0, 0.05),
    )


def generate() -> dict:
    spectrum = run_sweep(parse_config(SPECTRUM_CONFIG))
    drives = []
    for g42 in PUMP_DRIVES:
        base = parse_config(PUMP_CONFIG, {"g42": repr(g42), "start": "1e-5"})
        star = find_gain_threshold(base.params, base.medium, THRESHOLD_RANGE)
        start = float(f"{START_FACTOR * star:.3g}")
        table = run_sweep(parse_config(PUMP_CONFIG, {"g42": repr(g42), "start": repr(start)}))
        if table.failures:
            raise RuntimeError(f"g42 = {g42}: failed points {table.failures}")
        drives.append(
            {"g42": g42, "lambda_star": star, "start": start,
             "columns": table.columns, "rows": table.rows}
        )
    rng = np.random.default_rng(RANDOM_SEED)
    draws = [random_params(rng) for _ in range(RANDOM_DRAWS)]
    medium = MediumParams()
    chis = [chi_at(p, medium) for p in draws]
    return {
        "tolerances": TOLERANCES,
        "spectrum": {"config": SPECTRUM_CONFIG, "columns": spectrum.columns, "rows": spectrum.rows},
        "pump_config": PUMP_CONFIG,
        "threshold_range": THRESHOLD_RANGE,
        "pump_drives": drives,
        "random": {
            "params": [list(astuple(p)) for p in draws],
            "chi": [[chi.real, chi.imag] for chi in chis],
        },
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")

"""Write ``references.json``: roots of the exact model that
``tests/test_references.py`` checks the root finders against.

Run from the repository root:

    python tests/data/make_references.py

Every value comes from ``tests/exact_oracle.py``, whose steady state is
the double nearest the exact rational solution, so the sign of Im rho23
(and of Im chi, which is a positive multiple of it) is exact at every
evaluated point.  Nothing is taken from darkres.  Each root is found in
two steps that share no code with the production finders: a coarse scan
on a logarithmic grid brackets the sign change nearest the start, then
bisection halves the bracket until its midpoint rounds to one of its
ends, so the stored root and its bracket are adjacent doubles.

The file holds:

- the vanishing-absorption detuning delta0 on both sides of resonance
  for the pumped configuration (the sign change nearest delta_p = 0);
- the gain threshold lambda* over (1e-8, 1e-2) at delta_p = 0 for the
  drives g42 = 4, 7 and 10 without pump.

Each exact evaluation takes about 60 ms; the whole script about 20 s.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import exact_oracle  # noqa: E402

REFERENCES = HERE / "references.json"

MERCURY = {
    "g41": 0.04, "g42": 4.0, "g_p": 1e-4, "delta41": 0.0, "delta42": 0.0, "delta_p": 0.0,
    "gamma41": 1.0, "gamma42": 0.79, "gamma23": 0.14, "gamma13": 0.0, "lambda_pump": 0.0,
}
PUMPED = dict(MERCURY, lambda_pump=4e-5)
THRESHOLD_DRIVES = (4.0, 7.0, 10.0)
THRESHOLD_RANGE = (1e-8, 1e-2)
# Coarse scans: |delta_p| from 1e-6 to 1e-2 at four points a decade, and
# lambda over THRESHOLD_RANGE at two points a decade.
DELTA_SCAN = [10.0 ** (k / 4) for k in range(-24, -7)]
LAMBDA_SCAN = [10.0 ** (k / 2) for k in range(-16, -3)]


def im_rho23(fields: dict[str, float]) -> float:
    """Im rho23 of the exact steady state at ``fields``."""
    rho, _ = exact_oracle.steady_state_and_derivative(SimpleNamespace(**fields))
    return float(rho[1, 2].imag)


def root(f, scan: list[float]) -> dict[str, float | list[float]]:
    """The sign change of ``f`` between the first two adjacent points of
    ``scan`` whose signs differ, bisected to adjacent doubles."""
    lo, f_lo = scan[0], f(scan[0])
    for hi in scan[1:]:
        f_hi = f(hi)
        if (f_lo < 0) != (f_hi < 0):
            break
        lo, f_lo = hi, f_hi
    else:
        raise RuntimeError("no sign change on the scan")
    bisections = 0
    while True:
        mid = lo + (hi - lo) / 2
        if mid in (lo, hi):
            return {"value": mid, "bracket": sorted((lo, hi)), "bisections": bisections}
        f_mid = f(mid)
        bisections += 1
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def generate() -> dict:
    zeros = {
        str(side): root(lambda d: im_rho23(dict(PUMPED, delta_p=d)), [side * d for d in DELTA_SCAN])
        for side in (+1, -1)
    }
    thresholds = []
    for g42 in THRESHOLD_DRIVES:
        star = root(lambda lam: im_rho23(dict(MERCURY, g42=g42, lambda_pump=lam)), LAMBDA_SCAN)
        thresholds.append({"g42": g42, **star})
    return {
        "pumped": {"params": PUMPED, "delta0": zeros},
        "threshold": {"params": MERCURY, "range": THRESHOLD_RANGE, "drives": thresholds},
    }


if __name__ == "__main__":
    REFERENCES.write_text(json.dumps(generate(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCES}")

"""One traced pass of each bench workload, so that a change to a traced
layer's signature (``assemble``, ``solve_linear``, ...) cannot silently
break ``bench/run.py``; the pump scan also keeps its solve budget."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["spectrum", "pump_scan", "random_states"])
def test_one_traced_pass(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    metrics = {key: value["value"] for key, value in result["metrics"].items()}
    if workload == "spectrum":
        # the sweep's base row comes from its resolvent: the one solve is
        # the cross-check at the far end of the grid
        assert metrics["steady_state.calls"] <= 1
    if workload == "pump_scan":
        # every zero search hits on its first, seeded bracket; the seed's
        # probe-free state, both ends and the Newton iterates of each
        # search are hint states (LAPACK solves under the gate), not
        # steady_state solves.  Each reported root passes one steady_state:
        # 18 solves a pass at seed 0 (one verification per zero, which the
        # slope and group index at delta0 reuse, and one chi_at at each
        # threshold), 33 with a check at each upper end, 48 with a
        # probe-free solve per zero, 66 with a solve at each lower end, 115
        # with a solve per iterate, 145 without the verification's reuse,
        # and 216 with the decade search alone
        assert metrics["steady_state.calls"] <= 18
        assert metrics["observables.find_absorption_zero_auto.bracket_hit_ratio"] == 1.0

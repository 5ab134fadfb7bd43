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
    if workload == "pump_scan":
        # every zero search hits on its first, seeded bracket, its Newton
        # iterates and the threshold's come from the resolvent on the end
        # solve, and the slope and group index at delta0 reuse its
        # verification solve: 66 solves a pass at seed 0, 115 with a solve
        # per iterate, 145 without that reuse, and 216 with the decade
        # search alone
        metrics = {key: value["value"] for key, value in result["metrics"].items()}
        assert metrics["steady_state.calls"] <= 66
        assert metrics["observables.find_absorption_zero_auto.bracket_hit_ratio"] == 1.0

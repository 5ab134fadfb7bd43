"""darkres benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload spectrum --seed 1 --seconds 35 --trace 0

Run from the repository root; darkres is imported from ``src/`` of the
same checkout.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics, with ``--trace 1`` one with the
per-layer metrics.  ``--workload all`` runs every workload, each in a
process of its own.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# The child prints its monotonic clock once the config is parsed; the
# clock is system-wide, so no wait or poll of the parent is timed.
SETUP_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import darkres; "
    "darkres.parse_config(open(sys.argv[2], encoding='utf-8').read()); "
    "print(time.perf_counter())"
)
WORKLOAD_NAMES = ("spectrum", "pump_scan", "random_states")


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_seconds(config_path: Path) -> float:
    """Median wall time of a fresh interpreter importing darkres and
    parsing the workload's config."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config_path)],
            check=True, timeout=60, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        times.append(float(child.stdout) - t0)
    return statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    """q-th percentile by the inclusive method of statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "darkres" / "__init__.py").is_file():
        fail(f"no darkres sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import darkres

    if Path(darkres.__file__).resolve().parent != SRC / "darkres":
        fail(f"imported darkres from {darkres.__file__}, not from {SRC}")
    import tracer as tracing
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORKDIR))
    try:
        wl = workloads.WORKLOADS[name](seed, workdir)
        config = workdir / "workload.cfg"
        config.write_text(wl.config, encoding="utf-8")
        setup = None if trace else setup_seconds(config)

        # Warm-up outside the clock: first-call costs are not per pass.
        spec = darkres.parse_config(wl.config)
        darkres.chi_at(spec.params, spec.medium)
        tracer = tracing.Tracer() if trace else None
        if tracer:
            overhead = tracing.wrapper_overhead()
            tracer.install()

        results = []
        deadline = time.perf_counter() + seconds
        while not results or time.perf_counter() < deadline:
            results.append(wl.run_pass())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for res in results for p in res.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer:
        tracer.require_calls(wl.reaches)
        metrics = tracing.layer_metrics(tracer, len(results), overhead)
    else:
        op_times = [op for res in results for op in res.op_seconds]
        # 90th percentiles: on a host that switches between a fast and a slow
        # phase, they sit in the slow phase and stay steady where medians flip.
        metrics = {
            "setup_s": (setup, "s"),
            "wall_p90_s": (percentile([res.pass_seconds for res in results], 90), "s"),
            "op_p90_ms": (1e3 * percentile(op_times, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    wall = statistics.median(res.pass_seconds for res in results)
    print(f"{name}: seed {seed}, {len(results)} passes, median pass {wall:.3f} s")
    for key, (value, unit) in metrics.items():
        print(f"  {key:58s} {value:14.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": sum(res.attempted for res in results),
        "failed": sum(res.failed for res in results),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in a process of its own; the combined result keys
    every metric by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Cap the BLAS pools before numpy is first imported; children inherit it.
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

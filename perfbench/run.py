"""Envelope benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload hr_day --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the result holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The
last line of standard output is the JSON result; progress and failed
checks go to standard error.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
OUT = HERE / "out"
WORKLOADS = ("hr_day", "synth_sweep", "hr_margin", "au_oracle")
SETUP_PROBES = 3
RUN_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: on two cores, threaded OpenBLAS made factorization
    # times both slower and less repeatable.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_time(workload: str, seed: int, env: dict, deadline: float) -> float:
    """Interpreter start through `import lvdoe` and loading the inputs."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--probe", workload, str(seed)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        line = ""
        if select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))[0]:
            line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lvdoe" / "__init__.py").is_file():
        print(f"error: no lvdoe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    env = child_env()
    try:
        setups = [] if args.trace else [
            setup_time(args.workload, args.seed, env, deadline) for _ in range(SETUP_PROBES)
        ]
        proc = subprocess.run(
            [sys.executable, str(WORKER), args.workload, str(args.seed), str(args.seconds),
             str(args.trace), str(OUT)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload process exited with code {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])

    print(f"{args.workload} seed {args.seed}: {report['rounds']} round(s), "
          f"run_s {report['run_s']:.4f}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in report["per_layer"].items()}
        print(f"spans written to {report['spans']}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": report["run_s"], "unit": "s"},
            "export_kwh": {"value": report["export_kwh"], "unit": "kWh"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

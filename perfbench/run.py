"""Benchmark of golaypairs: one workload per call, in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 starts SETUP_RUNS processes: one measures the closed loop for S
seconds, the others only set up, and setup_s is the median over all of
them.  --trace 1 starts one process that reports per-layer metrics.  Human
readable lines come first; the last line of standard output is one JSON
object with keys correct, attempted, failed and metrics.  Any failure to run
exits non-zero without that line.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import tail_count
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def child(args, role: str, seconds_left: float) -> dict:
    """Run one child process and return the JSON object it printed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--role", role,
        "--t0", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, seconds_left),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> str:
    import numpy

    return (
        f"machine: nproc={os.cpu_count()} arch={platform.machine()} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "golaypairs" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    print(machine())
    if args.trace:
        res = child(args, "trace", deadline - time.monotonic())
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in res["metrics"].items()
        }
    else:
        runs = []
        for role in ["setup"] * (SETUP_RUNS - 1) + ["measure"]:
            runs.append(child(args, role, deadline - time.monotonic()))
        res = runs[-1]
        res["setup_s"] = statistics.median(r["setup_s"] for r in runs)
        for key in ("attempted", "failed"):  # setup runs check their warm-up op too
            res[key] = sum(r[key] for r in runs)
        print("wall clock: setup_s " + " ".join(f"{r['wall_setup_s']:.4f}" for r in runs)
              + "".join(f", {n} {res['wall_' + n]:.6g}" for n in ("ops_per_s", "op_p50_ms", "op_p90_ms")))
        print(f"op samples: {res['ops']} (op_p90_ms has {tail_count(res['ops'], 90)} beyond it)")
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    print(f"speed factor to the reference machine: {res['speed']:.4f}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"error_rate: {res['failed'] / res['attempted']:.6g} ({res['failed']}/{res['attempted']})")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count/op"
    if name.endswith("_ms"):
        return "ms/op"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh process; prints its result as one JSON line.

Roles:

    setup    set up (imports, inputs, one untimed warm-up op) and report
             setup_s only
    measure  set up, then run ops as a closed loop for --seconds: one client,
             each op issued after the previous one finished and was checked
    trace    set up, run the workload's trace ops untraced, then twice traced,
             and report per-layer metrics

setup_s runs from --t0, a time.monotonic() reading the parent took just
before it started this process (CLOCK_MONOTONIC is system-wide on Linux), to
the first timed op.  The package is imported from src/ of the checkout this
file lives in, and nowhere else.

Times are reported at a reference machine speed, measured by a SpeedProbe,
next to the wall-clock values they were scaled from.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


REFERENCE_LOOP_N = 20_000
REFERENCE_LOOP_S = 1.5e-3
PROBE_INTERVAL_S = 0.1
OP_WINDOW_S = 0.5


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop, independent of the package."""
    t = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP_N):
        acc += i * i
    return time.perf_counter() - t


class SpeedProbe:
    """Samples machine speed every PROBE_INTERVAL_S of wall time, from a timer
    signal, while the phase it wraps runs.

    The host is shared, and its speed drifts by tens of percent within
    minutes.  Timing the reference loop at a steady rate, during the ops as
    well as between them, measures the speed the phase actually got.
    ``factor`` converts a wall time to what it would have been on a machine
    where the loop takes REFERENCE_LOOP_S.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, loop s)

    def _sample(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), reference_loop()))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append((time.perf_counter(), reference_loop()))

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Factor from the samples taken between start and end, or from all
        samples when none fall there."""
        inside = [d for t, d in self.samples if start <= t <= end]
        return REFERENCE_LOOP_S / statistics.median(inside or [d for _, d in self.samples])


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """The pct-th percentile by nearest rank: the smallest value with at
    least pct percent of the samples at or below it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_count(n: int, pct: float) -> int:
    """Samples strictly beyond the nearest-rank pct-th percentile of n."""
    return n - max(1, math.ceil(pct / 100 * n))


def import_package() -> SimpleNamespace:
    sys.path.insert(0, str(ROOT / "src"))
    names = ("cli", "decompose", "qarray")
    mods = {n: importlib.import_module(f"golaypairs.{n}") for n in names}
    pkg = sys.modules["golaypairs"]
    if ROOT / "src" not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"golaypairs imported from {pkg.__file__}, not from src/")
    return SimpleNamespace(**mods)


class Counter:
    """Attempted and failed ops; a raised exception is a failed op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._reported = False

    def run(self, wl, k: int):
        """Run and check op k; return (record or None, seconds in run)."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            record = wl.run(k)
            elapsed = time.perf_counter() - t
            ok = wl.check(k, record)
        except Exception:
            elapsed = time.perf_counter() - t
            record, ok = None, False
            if not self._reported:
                traceback.print_exc()
                self._reported = True
        if not ok:
            self.failed += 1
        return record, elapsed


def measure(wl, counter: Counter, seconds: float) -> tuple[list, float]:
    """Closed loop for ``seconds``; (start, latency) of each op, and the end."""
    ops = []
    deadline = time.perf_counter() + seconds
    while (t := time.perf_counter()) < deadline:
        _, elapsed = counter.run(wl, len(ops))
        ops.append((t, elapsed))
    return ops, time.perf_counter()


def op_metrics(ops: list, end: float, probe: SpeedProbe) -> dict:
    """Throughput and latency percentiles, at wall clock and at the reference
    speed.

    An op's cycle runs from its start to the next op's start, so it holds the
    op, its check and the loop.  The latency and the cycle are both scaled by
    the speed sampled during the cycle and within OP_WINDOW_S of it, so a slow
    spell inside a run does not pass for a slow op.
    """
    starts = [t for t, _ in ops] + [end]
    wall_ms, ref_ms, ref_cycles = [], [], 0.0
    for (t, elapsed), t_next in zip(ops, starts[1:]):
        speed = probe.factor(t - OP_WINDOW_S, t_next + OP_WINDOW_S)
        wall_ms.append(elapsed * 1e3)
        ref_ms.append(elapsed * 1e3 * speed)
        ref_cycles += (t_next - t) * speed
    wall_ms.sort()
    ref_ms.sort()
    return {
        "ops": len(ops),
        "ops_per_s": len(ops) / ref_cycles,
        "op_p50_ms": nearest_rank(ref_ms, 50),
        "op_p90_ms": nearest_rank(ref_ms, 90),
        "wall_ops_per_s": len(ops) / (end - starts[0]),
        "wall_op_p50_ms": nearest_rank(wall_ms, 50),
        "wall_op_p90_ms": nearest_rank(wall_ms, 90),
    }


def digest(record) -> str:
    if record is None:
        return ""
    return hashlib.sha256(repr(record[:2]).encode()).hexdigest()


def trace(wl, counter: Counter, name: str) -> dict:
    from tracer import Tracer, layer_metrics

    n = wl.trace_ops

    def one_pass(tracer=None):
        digests, busy = [], 0.0
        for k in range(n):
            if tracer is not None:
                tracer.op_id = k + 1
            record, elapsed = counter.run(wl, k)
            digests.append(digest(record))
            busy += elapsed
        return digests, busy

    plain, plain_s = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = one_pass(tracer)
        spans, calls = list(tracer.spans), dict(tracer.calls)
        metrics = layer_metrics(tracer, n)
        tracer.reset()
        again, _ = one_pass(tracer)
        calls_again = dict(tracer.calls)
    finally:
        tracer.uninstall()
    mismatched = sum(a != b for a, b in zip(plain, traced))
    if mismatched:
        print(f"{mismatched} traced outputs differ from untraced ones", file=sys.stderr)
    if calls != calls_again or traced != again:
        print("call counts or outputs differ between traced passes", file=sys.stderr)
        mismatched += 1
    counter.failed += mismatched
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    with open(OUT / f"spans-{name}.tsv", "w", encoding="utf-8") as fh:
        fh.write("id\tparent\top\tname\tstart_ns\tend_ns\ttag\n")
        for span in spans:
            fh.write("\t".join(map(str, span)) + "\n")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    workdir = OUT / f"work-{args.role}-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        with SpeedProbe() as probe:
            wl = WORKLOADS[args.workload](import_package())
            wl.setup(args.seed, workdir)
            counter = Counter()
            counter.run(wl, 0)
            wall_setup_s = time.monotonic() - args.t0
        result = {"wall_setup_s": wall_setup_s, "setup_s": wall_setup_s * probe.factor()}
        if args.role == "measure":
            with SpeedProbe() as probe:
                ops, end = measure(wl, counter, args.seconds)
            result.update(op_metrics(ops, end, probe), speed=probe.factor())
        elif args.role == "trace":
            with SpeedProbe() as probe:
                metrics = trace(wl, counter, args.workload)
            result["speed"] = probe.factor()
            result["metrics"] = {
                name: value * probe.factor() if name.endswith("_ms") else value
                for name, value in metrics.items()
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["attempted"] = counter.attempted
    result["failed"] = counter.failed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

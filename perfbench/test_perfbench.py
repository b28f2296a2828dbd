"""Tests of the benchmark itself: checks, statistics, tracing, metric names.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import random
import signal
import statistics
import time
from pathlib import Path

import pytest

import child
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def gp():
    return child.import_package()


def test_census_check_passes_and_a_corrupted_expectation_fails(gp):
    wl = workloads.Census(gp, 2, 3, [])
    counter = child.Counter()
    counter.run(wl, 0)
    assert (counter.attempted, counter.failed) == (1, 0)
    wl.expected = wl.expected.replace('"gap_pair_count": 96', '"gap_pair_count": 97')
    counter.run(wl, 1)
    assert (counter.attempted, counter.failed) == (2, 1)


def test_census_report_text_matches_the_program(gp):
    for q, m in ((2, 3), (4, 2), (3, 2)):
        code, out = workloads.call_cli(gp.cli, ["census", str(q), str(m)])
        assert code == 0
        assert out == workloads.census_report_text(q, m)


class SmallVerify(workloads.Verify):
    POOL = 8


def test_verify_checks_both_verdicts_and_flag_corruption(gp, tmp_path):
    wl = SmallVerify(gp)
    wl.setup(7, tmp_path)
    counter = child.Counter()
    for k in range(wl.POOL):
        counter.run(wl, k)
    assert (counter.attempted, counter.failed) == (8, 0)
    # Swap the expected verdicts of one positive and one negative.
    for k in (0, 1):
        path, positive, f, g = wl.items[k]
        wl.items[k] = (path, not positive, f, g)
        counter.run(wl, k)
    assert counter.failed == 2


def test_roundtrip_check_catches_wrong_source_params(gp, tmp_path):
    class SmallRoundtrip(workloads.Roundtrip):
        POOL = 4

    wl = SmallRoundtrip(gp)
    wl.setup(3, tmp_path)
    counter = child.Counter()
    counter.run(wl, 0)
    assert counter.failed == 0
    path, params, arrays = wl.items[1]
    wl.items[1] = (path, dict(params, c0=(params["c0"] + 1) % params["q"]), arrays)
    counter.run(wl, 1)
    assert counter.failed == 1


def test_raised_exception_counts_as_failure():
    class Broken:
        def run(self, k):
            raise ValueError("boom")

        def check(self, k, record):
            return True

    counter = child.Counter()
    record, elapsed = counter.run(Broken(), 0)
    assert record is None and elapsed >= 0
    assert (counter.attempted, counter.failed) == (1, 1)


def test_generator_agrees_with_construct_standard(gp):
    from golaypairs.standard import StandardParams, construct_standard

    rng = random.Random(11)
    for q in (2, 4, 10):
        for m in (1, 2, 5):
            params = workloads.random_params(rng, q, m)
            f, g = construct_standard(StandardParams.from_json_dict(params))
            assert workloads.standard_pair(params) == (list(f.entries), list(g.entries))


def test_nearest_rank_and_tail_count():
    values = [float(v) for v in range(1, 101)]
    assert child.nearest_rank(values, 50) == 50.0
    assert child.nearest_rank(values, 90) == 90.0
    assert child.tail_count(100, 90) == 10
    assert child.nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert child.nearest_rank([1.0, 2.0, 3.0, 4.0, 5.0], 90) == 5.0
    assert child.tail_count(5, 90) == 0
    assert child.nearest_rank([7.0], 90) == 7.0
    assert child.tail_count(1, 50) == 0


def test_speed_probe_samples_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with child.SpeedProbe() as probe:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    loops = [d for _, d in probe.samples]
    assert probe.factor() == child.REFERENCE_LOOP_S / statistics.median(loops)
    first_t, first_d = probe.samples[0]
    assert probe.factor(first_t, first_t) == child.REFERENCE_LOOP_S / first_d
    assert probe.factor(end - 10, end - 9) == probe.factor()  # no sample there


def test_op_metrics_scale_each_op_by_the_speed_around_it():
    probe = child.SpeedProbe()
    # The machine runs at half the reference speed for the first 10 s.
    probe.samples = [(t / 10, 2 * child.REFERENCE_LOOP_S if t < 100 else child.REFERENCE_LOOP_S)
                     for t in range(200)]
    # Cycles: 2-3 s and 3-15 s (mostly slow), 15-16 s (fast).
    ops = [(2.0, 0.2), (3.0, 0.2), (15.0, 0.1)]
    got = child.op_metrics(ops, 16.0, probe)
    assert got["op_p50_ms"] == pytest.approx(100.0)
    assert got["op_p90_ms"] == pytest.approx(100.0)
    assert got["wall_op_p50_ms"] == pytest.approx(200.0)
    assert got["ops_per_s"] == pytest.approx(3 / (1 * 0.5 + 12 * 0.5 + 1 * 1.0))
    assert got["wall_ops_per_s"] == pytest.approx(3 / 14.0)


def test_speed_probe_samples_once_when_the_phase_is_short():
    with child.SpeedProbe() as probe:
        pass
    assert len(probe.samples) == 1 and probe.factor() > 0


def test_self_time_subtracts_merged_clipped_children():
    # id, parent, op, name, start, end, tag
    spans = [
        (1, 0, 1, "root", 0, 100, ""),
        (2, 1, 1, "a", 10, 30, ""),
        (3, 1, 1, "b", 20, 40, ""),   # overlaps a: covered once
        (4, 1, 1, "c", 90, 120, ""),  # clipped to the parent's end
        (5, 2, 1, "leaf", 12, 18, ""),  # grandchild: only a loses it
        (6, 0, 2, "other", 200, 210, ""),
    ]
    assert tracer.self_times(spans) == [100 - 30 - 10, 20 - 6, 20, 30, 6, 10]


def test_tracer_patches_every_binding_and_restores_them(gp):
    import golaypairs.census as census
    import golaypairs.qarray as qarray

    original = qarray.is_gap
    t = tracer.Tracer()
    t.install()
    try:
        assert census.is_gap is gp.cli.is_gap is qarray.is_gap is not original
        t.op_id = 1
        assert workloads.call_cli(gp.cli, ["census", "2", "2"])[0] == 0
        first = dict(t.calls)
        metrics = tracer.layer_metrics(t, 1)
        t.reset()
        workloads.call_cli(gp.cli, ["census", "2", "2"])
        assert dict(t.calls) == first
    finally:
        t.uninstall()
    assert census.is_gap is qarray.is_gap is original
    assert metrics["cli.main.calls"] == 1
    assert metrics["qarray.is_gap.calls"] >= 16  # one re-check per matched pair
    assert metrics["census.enumerate_standard.calls"] == 1
    assert metrics["qarray.is_gap.neg_self_ms"] == 0
    assert metrics["cyclotomic.CycElement.is_zero.calls"] > 0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer_names = set(tracer.layer_metrics(tracer.Tracer(), 1)) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)

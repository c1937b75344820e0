"""Tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest layerbench/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import bench


# -- the percentile rule ------------------------------------------------------ #


@pytest.mark.parametrize("count, expected", [
    (0, None),
    (19, None),
    (20, 50.0),
    (39, 50.0),
    (40, 75.0),
    (100, 90.0),
    (199, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10_000, 99.9),
    (10_000_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert bench.tail_percentile(count) == expected


def test_tail_percentile_always_leaves_ten_samples_above():
    for count in range(20, 3000, 7):
        p = bench.tail_percentile(count)
        samples = list(range(count))
        value = bench.percentile(samples, p)
        assert sum(1 for s in samples if s > value) >= bench.TAIL_SAMPLES


def test_percentile_nearest_rank():
    samples = [5, 1, 4, 2, 3]
    assert bench.percentile(samples, 50) == 3
    assert bench.percentile(samples, 100) == 5
    assert bench.percentile(samples, 0) == 1
    assert bench.percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        bench.percentile([], 50)


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 30.0]
    s = bench.spread(values)
    assert s["median"] == 12.0
    assert (s["q1"], s["q3"]) == (10.5, 21.5)
    assert s["iqr_frac"] == pytest.approx(11.0 / 12.0)
    assert s["range_frac"] == pytest.approx(20.0 / 12.0)


# -- batch timers ------------------------------------------------------------- #


def test_time_batch_sleep_is_wall_not_cpu():
    batch, results = bench.time_batch(lambda: time.sleep(0.01), 5)
    assert results == [None] * 5
    assert batch.calls == 5
    assert batch.wall_ns >= 5 * 10_000_000
    assert batch.cpu_ns < batch.wall_ns / 4
    assert batch.wall_us == pytest.approx(batch.wall_ns / 5 / 1e3)


def test_time_batch_busy_loop_is_cpu():
    def spin():
        end = time.perf_counter() + 0.005
        while time.perf_counter() < end:
            pass
        return 1

    batch, results = bench.time_batch(spin, 4)
    assert results == [1] * 4
    assert batch.wall_ns >= 4 * 5_000_000
    # Busy waiting burns CPU for (nearly) the whole wall interval; a
    # preempted run loses some, so only require half.
    assert batch.cpu_ns >= batch.wall_ns / 2
    assert batch.thread_ns >= batch.wall_ns / 2


def test_time_batch_rejects_empty_batch():
    with pytest.raises(ValueError):
        bench.time_batch(lambda: None, 0)


def test_window_measures_interval():
    window = bench.Window()
    time.sleep(0.01)
    window.close()
    assert window.wall_ns >= 10_000_000
    assert 0 <= window.cpu_ns < window.wall_ns


def test_cpu_s_counts_reaped_children():
    before = bench.cpu_s()
    subprocess.run(
        [sys.executable, "-c",
         "import time\nend = time.process_time() + 0.2\n"
         "while time.process_time() < end: pass"],
        check=True,
    )
    # The child's busy loop is counted once the child has been waited for.
    assert bench.cpu_s() - before >= 0.2


def test_cpu_s_ignores_sleep():
    before = bench.cpu_s()
    time.sleep(0.05)
    assert bench.cpu_s() - before < 0.04


# -- oracle tolerances -------------------------------------------------------- #


def test_close_float_scales_with_condition_bound():
    assert bench.close_float(1.0 + 1e-12, 1.0, 1.0, bench.POLY_REL_TOL)
    assert not bench.close_float(1.0 + 1e-6, 1.0, 1.0, bench.POLY_REL_TOL)
    # A large condition bound admits a proportionally larger error.
    assert bench.close_float(1.0 + 1e-6, 1.0, 1e4, bench.POLY_REL_TOL)


def test_close_float_rejects_non_numbers():
    assert not bench.close_float(float("nan"), 1.0, 1.0, 1e-9)
    assert not bench.close_float(float("inf"), 1.0, 1.0, 1e-9)
    assert not bench.close_float(None, 1.0, 1.0, 1e-9)


def test_close_vector():
    want = [1 + 1j, 2 - 1j]
    assert bench.close_vector([1 + 1j, 2 - 1j + 1e-12], want, 3.0,
                              bench.FFT_REL_TOL)
    assert not bench.close_vector([1 + 1j, 2 - 1j + 1e-6], want, 3.0,
                                  bench.FFT_REL_TOL)
    assert not bench.close_vector([1 + 1j], want, 3.0, bench.FFT_REL_TOL)


def test_parallel_polynomial_error_fits_tolerance():
    """Re-associating a Horner evaluation stays within POLY_REL_TOL."""
    import random

    rng = random.Random(7)
    coeffs = [rng.uniform(-1, 1) for _ in range(1 << 12)]
    x = 0.97
    horner = 0.0
    for c in coeffs:
        horner = horner * x + c
    n = len(coeffs)
    split = sum(c * x ** (n - 1 - i) for i, c in enumerate(coeffs))
    scale = sum(abs(c) * abs(x) ** (n - 1 - i) for i, c in enumerate(coeffs))
    assert bench.close_float(split, horner, scale, bench.POLY_REL_TOL)


# -- metric names ------------------------------------------------------------- #


@pytest.mark.parametrize("name", [
    "setup_s", "seq_cpu_vs_hand", "fusion.plan_us", "obs.trace_overhead_pct",
    "a", "9lives", "x" * 64,
])
def test_metric_name_accepts(name):
    assert bench.check_metric_name(name) == name


@pytest.mark.parametrize("name", [
    "", "_lead", ".lead", "has space", "slash/no", "x" * 65, "ü", None,
])
def test_metric_name_rejects(name):
    with pytest.raises(ValueError):
        bench.check_metric_name(name)


def test_catalog_matches_benchmark_json():
    import run

    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    for key, catalog in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == catalog
        for name in declared:
            bench.check_metric_name(name)


def test_unreached_fills_only_layers_another_workload_owns():
    import run

    metrics = {"seq_cpu_us": 1.0}
    filled = run.unreached("small", metrics)
    assert set(filled) == {"bulk", "powerlist", "serve"}
    assert "process_p50_us" in filled["bulk"]
    assert "serve.p50_us" in filled["serve"]
    assert metrics["power.leaf_us"] == 0.0
    # Layers of the workload itself, and shared layers, are never filled.
    assert "fusion.plan_us" not in metrics
    own = {}
    assert "serve" not in run.unreached("serve", own)
    assert not any(key.startswith("serve.") for key in own)


def test_setup_samples_run_in_fresh_interpreters():
    import run

    samples = run.setup_samples("small", 1, 1.0, 2)
    assert len(samples) == 2
    # Each counts at least an interpreter start and the engine's imports.
    assert all(0.05 < s < 60 for s in samples)


# -- oracles of the workloads ------------------------------------------------- #


def test_any_match_checks_both_answers():
    """A leg stuck at True (or at False) fails some any_match query."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads
    from repro.forkjoin.pool import ForkJoinPool

    with ForkJoinPool(parallelism=1) as pool:
        queries = [q for q in workloads.build_small(3, pool).queries
                   if q.label.startswith("any_match/")]
        for query in queries:
            want = query.legs["hand"]()
            assert query.legs["seq"]() == want
            assert query.check(want) and not query.check(not want)
    answers = [q.legs["hand"]() for q in queries]
    assert answers.count(True) == answers.count(False) == 4


# -- span self time ----------------------------------------------------------- #


def _span(kind, worker, start, end):
    return SimpleNamespace(kind=kind, worker=worker, start_ns=start,
                           end_ns=end)


def test_self_times_subtract_nested_children():
    spans = [
        _span("task", 0, 0, 100),
        _span("leaf", 0, 10, 40),
        _span("combine", 0, 50, 60),
        _span("leaf", 1, 20, 30),  # another worker: not a child
        _span("steal", 0, 70, 70),  # instant: ignored
    ]
    assert bench.self_times(spans) == {"task": 60, "leaf": 40, "combine": 10}


def test_self_times_nested_two_deep():
    spans = [
        _span("function", -1, 0, 100),
        _span("task", -1, 10, 90),
        _span("leaf", -1, 20, 50),
    ]
    assert bench.self_times(spans) == {"function": 20, "task": 50, "leaf": 30}

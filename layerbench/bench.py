"""Measurement helpers for the layer-ledger benchmark.

Everything here is independent of the engine under test, so the unit
tests in ``test_bench.py`` can pin it without importing ``repro``:

* batch timers that read wall and process-CPU clocks around a batch of
  calls, after a ``gc.collect()`` (GC stays on inside the batch);
* the set-up clock: CPU of this process and of its reaped children;
* the percentile rule (report the highest percentile that still has at
  least ten samples beyond it);
* oracle tolerances for floating-point results;
* span self time for the per-layer ledger;
* the metric-name check.
"""

from __future__ import annotations

import gc
import math
import re
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles the tail rule may pick from, highest last.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10

#: Relative tolerance of a parallel polynomial value against Horner's
#: rule, scaled by the condition bound sum(|c_i| |x|^k): the split changes
#: the association of ~2^16 multiply-adds, each off by at most one ulp.
POLY_REL_TOL = 1e-9

#: FFT tolerance, scaled by sum(|v|): the butterfly tree differs from the
#: recursive reference only in rounding.
FFT_REL_TOL = 1e-9

#: Float sums over 2^18 elements: chunked and split summation orders.
SUM_REL_TOL = 1e-9


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError.

    Names are 1-64 characters of ``[A-Za-z0-9_.-]`` starting with a
    letter or digit.
    """
    if not isinstance(name, str) or _NAME.fullmatch(name) is None:
        raise ValueError(f"invalid metric name {name!r}")
    return name


# --------------------------------------------------------------------------- #
# Timing
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Batch:
    """One timed batch: ``calls`` invocations, wall and CPU in ns.

    ``cpu_ns`` is process CPU (every thread, which is what a parallel
    query costs); ``thread_ns`` is the calling thread's CPU alone, the
    right clock for single-threaded work such as the hand-written floor,
    because it excludes pool workers still winding down from an earlier
    batch.
    """

    calls: int
    wall_ns: int
    cpu_ns: int
    thread_ns: int

    @property
    def wall_us(self) -> float:
        """Wall microseconds per call."""
        return self.wall_ns / self.calls / 1e3


def time_batch(fn: Callable[[], Any], calls: int) -> tuple[Batch, list]:
    """Run ``fn`` ``calls`` times; return the timing and every result.

    Collects garbage first so one batch does not pay for the last one's
    garbage; collection stays enabled inside the batch.  Results are kept
    (not checked) so that checking happens outside the timed region.
    """
    if calls < 1:
        raise ValueError(f"calls must be >= 1, got {calls}")
    results = []
    append = results.append
    gc.collect()
    cpu0 = time.process_time_ns()
    thread0 = time.thread_time_ns()
    wall0 = time.perf_counter_ns()
    for _ in range(calls):
        append(fn())
    wall1 = time.perf_counter_ns()
    thread1 = time.thread_time_ns()
    cpu1 = time.process_time_ns()
    batch = Batch(calls, wall1 - wall0, cpu1 - cpu0, thread1 - thread0)
    return batch, results


def cpu_s() -> float:
    """CPU seconds of this process (every thread) plus its reaped children.

    Set-up is timed on this clock: it counts work done in subprocesses
    once they have been waited for, and, unlike wall time, it does not
    count the time other tenants of a shared machine hold the CPUs.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Window:
    """Process CPU and wall time over an interval, for open-loop runs."""

    def __init__(self) -> None:
        self.cpu0 = time.process_time_ns()
        self.wall0 = time.perf_counter_ns()
        self.cpu_ns = 0
        self.wall_ns = 0

    def close(self) -> "Window":
        self.cpu_ns = time.process_time_ns() - self.cpu0
        self.wall_ns = time.perf_counter_ns() - self.wall0
        return self


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``samples`` (non-empty)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it.

    ``count * (1 - p/100) >= 10``; None when even the median has fewer
    than ten samples above it (``count < 20``).
    """
    best = None
    for p in PERCENTILE_LADDER:
        if count * (1.0 - p / 100.0) >= TAIL_SAMPLES - 1e-9:
            best = p
    return best


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles as ``statistics.quantiles(values, n=4)`` gives
    them, IQR/median and (max - min)/median."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    scale = abs(med) or 1.0
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / scale,
        "range_frac": (max(values) - min(values)) / scale,
    }


# --------------------------------------------------------------------------- #
# Oracles
# --------------------------------------------------------------------------- #


def close_float(got: float, want: float, scale: float, rel: float) -> bool:
    """``|got - want| <= rel * scale``, with ``scale`` the condition bound
    of the computation (e.g. sum of absolute terms)."""
    return (
        isinstance(got, (int, float))
        and math.isfinite(got)
        and abs(got - want) <= rel * max(scale, 1e-300)
    )


def close_vector(got: Sequence[complex], want: Sequence[complex],
                 scale: float, rel: float) -> bool:
    """Elementwise :func:`close_float` for equal-length sequences."""
    if len(got) != len(want):
        return False
    bound = rel * max(scale, 1e-300)
    return all(abs(g - w) <= bound for g, w in zip(got, want))


# --------------------------------------------------------------------------- #
# Span self time
# --------------------------------------------------------------------------- #


def self_times(spans: Iterable[Any]) -> dict[str, int]:
    """Total self time in ns per span kind.

    A span's self time is its duration minus the part of it covered by
    spans nested inside it on the same worker.  Instants are ignored.
    """
    by_worker: dict[int, list] = {}
    for span in spans:
        if span.end_ns > span.start_ns:
            by_worker.setdefault(span.worker, []).append(span)
    totals: dict[str, int] = {}
    for worker_spans in by_worker.values():
        # Parents sort before children: earlier start, then longer span.
        worker_spans.sort(key=lambda s: (s.start_ns, -s.end_ns))
        stack: list[list] = []  # [span, ns covered by children]

        def pop() -> None:
            span, covered = stack.pop()
            own = (span.end_ns - span.start_ns) - covered
            totals[span.kind] = totals.get(span.kind, 0) + own
            if stack:
                stack[-1][1] += span.end_ns - span.start_ns

        for span in worker_spans:
            while stack and stack[-1][0].end_ns <= span.start_ns:
                pop()
            if stack and span.end_ns > stack[-1][0].end_ns:
                # Overlapping, not nested: treat as a sibling of the parent.
                pop()
            stack.append([span, 0])
        while stack:
            pop()
    return totals
